/**
 * @file
 * ServeClient: the client side of the line protocol, shared by
 * `segram client`, the serve integration tests and perfbench's
 * served workloads — one implementation of framing, so a protocol change cannot silently
 * fork between the daemon's consumers.
 */

#ifndef SEGRAM_SRC_SERVE_CLIENT_H
#define SEGRAM_SRC_SERVE_CLIENT_H

#include <string>
#include <string_view>
#include <vector>

#include "src/serve/net.h"
#include "src/serve/protocol.h"

namespace segram::serve
{

/** One connection to a segram daemon. Not thread-safe; one client per
 *  thread (the protocol is strictly request/response per connection). */
class ServeClient
{
  public:
    /** @throws IoError when the connection fails. */
    static ServeClient connectUnixSocket(const std::string &path);
    static ServeClient connectTcpSocket(const std::string &host,
                                        int port);

    /** PING round trip. @throws IoError when the server hangs up. */
    Reply ping();

    /** STATS; the reply payload holds `<key> <value>` lines. */
    Reply stats();

    /** RELOAD <reference> <pack-path>. */
    Reply reload(const std::string &reference,
                 const std::string &pack_path);

    /**
     * MAP: sends the batch, returns the reply (payload = PAF lines).
     * `ERR BUSY` comes back as a Reply with code "BUSY" — retrying is
     * the caller's policy, not the transport's.
     */
    Reply mapReads(const std::string &reference,
                   const std::vector<ReadRecord> &reads);

    /** QUIT (the server acknowledges, then the session ends). */
    Reply quit();

  private:
    explicit ServeClient(UniqueFd fd);

    /** Sends @p wire, reads `OK n` + n payload lines (or ERR). */
    Reply roundTrip(std::string_view wire);

    UniqueFd fd_;
    LineReader reader_;
};

} // namespace segram::serve

#endif // SEGRAM_SRC_SERVE_CLIENT_H
