/**
 * @file
 * The multi-tenant batch execution service (ROADMAP item 2).
 *
 * A Server owns the three concurrency pieces — FrontCache,
 * WorkerPool, Metrics — and turns protocol Requests into Responses.
 * Every run executes on a worker with its own Machine and
 * MemoryModel over the shared immutable CompiledProgram, under the
 * server's step budget, per-request wall-clock deadline, and the
 * server-wide cancel flag; a hostile program therefore costs at
 * most one deadline of one worker's time and ends cleanly as a
 * "resource-exhausted" verdict.
 *
 * Two frontends share this server: runBatch() (one-shot NDJSON
 * file/stream mode — what tests and CI drive, no networking
 * needed) and the socket listener in serve/net.h used by
 * examples/cherisem_serve.cpp.
 */
#ifndef CHERISEM_SERVE_SERVER_H
#define CHERISEM_SERVE_SERVER_H

#include <atomic>
#include <functional>
#include <iosfwd>
#include <memory>

#include "serve/exec.h"
#include "serve/metrics.h"
#include "serve/pool.h"
#include "serve/protocol.h"

namespace cherisem::serve {

struct ServerOptions
{
    /** 0 = std::thread::hardware_concurrency(). */
    unsigned threads = 0;
    size_t queueCapacity = 256;
    /** Front-cache entries; 0 disables caching. */
    size_t cacheCapacity = 512;
    /** Hard per-run ceilings (requests may tighten, not exceed). */
    uint64_t maxSteps = 20'000'000;
    /** Default per-request wall-clock budget; 0 = none. */
    uint64_t deadlineMs = 10'000;
    /** Warm serving: when non-empty, this source (typically defining
     *  `__prelude()` and the globals it populates) is prepended to
     *  every run request, and the post-prelude machine state is
     *  snapshotted per program — repeats restore the COW snapshot
     *  and execute only main(). */
    std::string warmPrelude;
    /** Warm snapshots retained (LRU); 0 disables snapshotting even
     *  with a prelude. */
    size_t warmCapacity = 64;
};

class Server
{
  public:
    explicit Server(const ServerOptions &opts);
    /** Cancels in-flight runs, drains, joins. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Execute @p req on the calling thread (the single-threaded
     *  oracle path and the building block for workers). */
    Response runNow(const Request &req);

    /** Enqueue @p req; @p done fires on a worker thread.  Blocks on
     *  a full queue (backpressure); returns false after shutdown. */
    bool submit(Request req, std::function<void(Response)> done);

    /** Wait until every accepted request has completed. */
    void drain();

    /** Read NDJSON requests from @p in, execute them on the pool,
     *  and write responses to @p out *in input order*.  Blank lines
     *  and #-comments are skipped.  Returns the number of malformed
     *  request lines (each also answered with a bad-request
     *  response). */
    int runBatch(std::istream &in, std::ostream &out);

    /** Flip the server-wide cancel flag: in-flight runs finish as
     *  resource-exhausted at their next watchdog poll. */
    void cancelAll();

    Metrics::Snapshot stats() const;
    FrontCache &cache() { return cache_; }
    WarmCache &warmCache() { return warm_; }
    bool warmEnabled() const { return !opts_.warmPrelude.empty(); }
    unsigned threads() const { return pool_.threads(); }

  private:
    Response execute(const Request &req, uint64_t queueNs);

    ServerOptions opts_;
    FrontCache cache_;
    WarmCache warm_;
    Metrics metrics_;
    std::atomic<bool> cancel_{false};
    WorkerPool pool_; ///< last member: workers die before the rest
};

} // namespace cherisem::serve

#endif // CHERISEM_SERVE_SERVER_H
