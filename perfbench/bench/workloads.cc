// The three workloads. Each run sets up its engine several times (setup_s
// is the median), replays a seeded, fixed operation sequence once as an
// untimed warm-up and then in several timed passes (throughput_ops_s is
// the median over passes; latency percentiles pool every sample), and
// checks every answer. Work is fixed per run, never a time box: per-query
// cost varies ~2x, so a time box would change which queries are sampled.
//
//   extract_bound  in-memory index of 300 128x128 scenes at t = 4, two
//                  callers querying held-out 384x384 scenes at eps = 0.085:
//                  region extraction dominates each query.
//   table1_paged   Table 1 setup at t = 8 on 6000 scenes, SavePaged +
//                  OpenPaged, two callers cycling eps over 0.05..0.09: the
//                  paged probe and the matcher dominate.
//   live_mixed     LiveIndex (WAL, 1000-image seed base, merge threshold
//                  64) behind a loopback WalrusServer with one reactor and
//                  two workers; one writer connection inserting with a
//                  delete every 4th operation, one reader connection.
//
// All runs use the paper's section 6.5 settings: eps_c = 0.05, 64x64
// windows, s = 2, YCC, centroid signatures, quick matcher; the result
// cache stays off.

#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "cluster/birch.h"
#include "common/serialize.h"
#include "core/index.h"
#include "core/query.h"
#include "core/query_engine.h"
#include "core/query_pipeline.h"
#include "core/region_extractor.h"
#include "core/signature.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "tracer.h"
#include "wal/live_index.h"
#include "wal/wal.h"

namespace perfbench {
namespace {

using walrus::ImageF;
using walrus::LiveIndex;
using walrus::QueryMatch;
using walrus::QueryOptions;
using walrus::Result;
using walrus::Status;
using walrus::WalrusClient;
using walrus::WalrusIndex;
using walrus::WalrusParams;
using walrus::WalrusServer;

// Scene pools shared by every workload and cached across runs.
constexpr int kPoolScenes = 7000;  // 128x128 corpus
constexpr int kPoolSide = 128;
constexpr int kBigPoolScenes = 400;  // 384x384 held-out queries
constexpr int kBigPoolSide = 384;

/// Set-ups per run (setup_s is their median); more where a set-up is
/// short.
constexpr int kSetupReps = 3;
constexpr int kSetupRepsExtractBound = 9;
constexpr int kCallers = 2;
/// AddImages workers during set-up: two, like the load generators, so a
/// slow core on a shared 4-core host stalls fewer chunk barriers.
constexpr int kBuildThreads = 2;
constexpr int kBuildChunk = 50;
/// In-process insert samples: 45 beyond the p99. A ~1 ms insert's tail is
/// made of host stalls of 4-15 ms that land at random positions (the
/// slowest inserts of two runs of one seed share almost none), so the p99
/// steadies only with more samples spread over the run.
constexpr int kInProcessInserts = 4500;
/// Offset of ids given to inserted images (disjoint from pool indexes).
constexpr uint64_t kInsertIdBase = 1000000;
constexpr int kLiveMergeThreshold = 64;
/// Traced run sizes: writer operations (enough for several explicit
/// merges at the threshold) and live_mixed queries.
constexpr size_t kTracedMutations = 256;
constexpr size_t kTracedLiveQueries = 128;
/// Live probes compared against the offline rebuild at the end of a run.
constexpr int kLiveProbes = 16;

constexpr float kExtractEps = 0.085f;
constexpr float kTable1Eps[5] = {0.05f, 0.06f, 0.07f, 0.08f, 0.09f};

/// Operations per unit of --seconds: a run's timed work is --seconds times
/// these, rounded to whole passes. At --seconds 30 each latency metric gets
/// at least 1400 samples (over ten beyond its p99; live_mixed queries 3600,
/// as merges make their tail wide), and the timed passes last about 50 s
/// (extract_bound, 23 passes), 23 s (table1_paged) and 22 s (live_mixed)
/// on a 4-core Xeon KVM guest. extract_bound gets the most passes: its
/// per-pass throughput swings ~10% with the host's load, table1_paged's
/// ~4%.
constexpr double kExtractBoundRate = 153.4;
constexpr double kTable1Rate = 46.7;
constexpr double kLiveWriterRate = 89.0;  // 3 of every 4 writes insert
constexpr double kLiveReaderRate = 120.0;
/// live_mixed timed segments per unit of --seconds.
constexpr double kLiveSegmentRate = 0.4;

/// Counts checked operations; any error or wrong answer is a failure.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Record(const std::vector<char>& oks) {
    for (char ok : oks) Record(ok != 0);
  }
};

void Fail(const Status& status, const char* what) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what,
               status.ToString().c_str());
}

WalrusParams PaperParams(int slide_step) {
  WalrusParams params;  // defaults are the section 6.5 settings
  params.slide_step = slide_step;
  return params;
}

QueryOptions PaperOptions(float epsilon) {
  QueryOptions options;  // quick matcher, prefilter and batched probe on
  options.epsilon = epsilon;
  return options;
}

/// An image to index: its id and the pool scene holding its pixels.
struct Entry {
  uint64_t id = 0;
  int scene = 0;
};

std::vector<Entry> EntriesFor(const std::vector<int>& scenes) {
  std::vector<Entry> entries;
  for (int scene : scenes) {
    entries.push_back({static_cast<uint64_t>(scene), scene});
  }
  return entries;
}

/// One query: a scene of a pool, its epsilon, and which distinct query it
/// is (the reference answer slot).
struct QueryOp {
  int scene = 0;
  float epsilon = kExtractEps;
  int distinct = 0;
};

/// One writer operation (insert of a new id, or delete of a live one).
struct WriterOp {
  bool insert = true;
  uint64_t id = 0;
  int scene = 0;
};

/// `count` operations drawn from `distinct`: seeded permutations of it
/// concatenated and truncated.
std::vector<QueryOp> ReplaySequence(const std::vector<QueryOp>& distinct,
                                    size_t count, walrus::Rng* rng) {
  std::vector<QueryOp> ops;
  while (ops.size() < count) {
    for (int i : Permutation(static_cast<int>(distinct.size()), rng)) {
      if (ops.size() == count) break;
      ops.push_back(distinct[i]);
    }
  }
  return ops;
}

/// Timed passes covering about `ops` operations, each a seeded replay of
/// every distinct query.
std::vector<std::vector<QueryOp>> TimedPasses(
    const std::vector<QueryOp>& distinct, double ops, walrus::Rng* rng) {
  const long passes = std::max(1L, std::lround(ops / distinct.size()));
  std::vector<std::vector<QueryOp>> out;
  for (long p = 0; p < passes; ++p) {
    out.push_back(ReplaySequence(distinct, distinct.size(), rng));
  }
  return out;
}

/// Prints the per-pass throughputs the reported median is taken over.
void ReportPasses(const std::vector<double>& throughput) {
  std::printf("# throughput per timed pass (ops/s):");
  for (double t : throughput) std::printf(" %.2f", t);
  std::printf("\n");
}

/// Writer sequence over a base of `base` ids: inserts of fresh ids cycling
/// through `insert_scenes`, with every 4th operation a delete of a live id
/// (alternately a base image and an earlier insert). Never fails on a
/// correct engine. `final_set`, when non-null, receives the live entries
/// after the whole sequence.
std::vector<WriterOp> WriterSequence(const std::vector<Entry>& base,
                                     const std::vector<int>& insert_scenes,
                                     size_t count, walrus::Rng* rng,
                                     std::vector<Entry>* final_set) {
  std::vector<Entry> live_base = base;
  std::vector<Entry> live_inserted;
  std::vector<WriterOp> ops;
  size_t inserts = 0;
  for (size_t k = 0; k < count; ++k) {
    if (k % 4 == 3) {
      std::vector<Entry>& from =
          (k / 4) % 2 == 0 || live_inserted.empty() ? live_base : live_inserted;
      const size_t victim = rng->NextBounded(static_cast<uint32_t>(from.size()));
      ops.push_back({false, from[victim].id, from[victim].scene});
      from.erase(from.begin() + static_cast<long>(victim));
    } else {
      const int scene = insert_scenes[inserts % insert_scenes.size()];
      const uint64_t id = kInsertIdBase + inserts++;
      ops.push_back({true, id, scene});
      live_inserted.push_back({id, scene});
    }
  }
  if (final_set != nullptr) {
    *final_set = live_base;
    final_set->insert(final_set->end(), live_inserted.begin(),
                      live_inserted.end());
  }
  return ops;
}

/// Indexes `entries` into `index` in chunks, so at most one chunk of
/// decoded images is resident; only the AddImages calls are timed.
Result<double> BuildIndex(const ScenePool& pool,
                          const std::vector<Entry>& entries,
                          WalrusIndex* index) {
  double seconds = 0.0;
  for (size_t begin = 0; begin < entries.size(); begin += kBuildChunk) {
    const size_t end = std::min(entries.size(), begin + kBuildChunk);
    std::vector<WalrusIndex::PendingImage> chunk;
    chunk.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      WALRUS_ASSIGN_OR_RETURN(ImageF image, pool.Load(entries[i].scene));
      chunk.push_back({entries[i].id, "", std::move(image)});
    }
    Stopwatch timer;
    WALRUS_RETURN_IF_ERROR(index->AddImages(std::move(chunk), kBuildThreads));
    seconds += timer.Seconds();
  }
  return seconds;
}

/// Closed loop: `callers` threads each take the next operation as soon as
/// their previous one completes. op(i, &ms) runs operation i, stores the
/// latency the caller saw in ms, and returns whether it succeeded and
/// answered correctly.
struct LoopResult {
  std::vector<double> ms;
  std::vector<char> ok;
  double wall_s = 0.0;
};

template <typename Op>
LoopResult ClosedLoop(int callers, size_t count, Op op) {
  LoopResult result;
  result.ms.assign(count, 0.0);
  result.ok.assign(count, 0);
  std::atomic<size_t> next{0};
  Stopwatch wall;
  std::vector<std::thread> threads;
  for (int t = 0; t < callers; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < count; i = next++) {
        result.ok[i] = op(i, &result.ms[i]) ? 1 : 0;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  result.wall_s = wall.Seconds();
  return result;
}

/// Latency of one query against `engine`, checked against `reference`
/// (the answer slot of its distinct query; nullptr skips the check).
bool TimedQuery(const walrus::QueryEngine& engine, const ScenePool& pool,
                const QueryOp& op, const std::vector<QueryMatch>* reference,
                double* ms, std::vector<QueryMatch>* answer = nullptr) {
  Result<ImageF> image = pool.Load(op.scene);
  if (!image.ok()) return false;
  Stopwatch timer;
  Result<std::vector<QueryMatch>> matches =
      engine.RunQuery(*image, PaperOptions(op.epsilon));
  *ms = timer.Ms();
  if (!matches.ok()) {
    Fail(matches.status(), "query");
    return false;
  }
  if (answer != nullptr) *answer = *matches;
  return reference == nullptr || SameMatches(*matches, *reference);
}

/// Durations of one engine set-up.
struct SetupTimes {
  double build_s = 0.0;
  double save_s = 0.0;
  double open_s = 0.0;
  double serve_s = 0.0;  // LiveIndex::Open + server start + connects
  double Total() const { return build_s + save_s + open_s + serve_s; }
};

/// The index a run queries: `built` is the in-memory index the workload
/// indexed, `opened` the copy persisted and reopened from disk.
struct IndexPair {
  std::unique_ptr<WalrusIndex> built;
  std::unique_ptr<WalrusIndex> opened;
  uint64_t disk_bytes = 0;
};

std::vector<std::string> IndexFiles(const std::string& prefix, bool paged) {
  if (paged) return {prefix + ".catalog", prefix + ".pmeta", prefix + ".ptree"};
  return {prefix + ".catalog", prefix + ".index"};
}

/// Builds, persists (Save or SavePaged) and reopens an index.
Result<IndexPair> SetupIndex(const ScenePool& pool,
                             const std::vector<Entry>& entries,
                             const WalrusParams& params,
                             const std::string& prefix, bool paged,
                             SetupTimes* times) {
  for (const std::string& file : IndexFiles(prefix, paged)) {
    std::remove(file.c_str());
  }
  IndexPair pair;
  pair.built = std::make_unique<WalrusIndex>(params);
  WALRUS_ASSIGN_OR_RETURN(times->build_s,
                          BuildIndex(pool, entries, pair.built.get()));
  Stopwatch save;
  WALRUS_RETURN_IF_ERROR(paged ? pair.built->SavePaged(prefix)
                               : pair.built->Save(prefix));
  times->save_s = save.Seconds();
  Stopwatch open;
  WALRUS_ASSIGN_OR_RETURN(WalrusIndex opened,
                          paged ? WalrusIndex::OpenPaged(prefix)
                                : WalrusIndex::Open(prefix));
  times->open_s = open.Seconds();
  pair.opened = std::make_unique<WalrusIndex>(std::move(opened));
  pair.disk_bytes = FileBytes(IndexFiles(prefix, paged));
  return pair;
}

// ---------------------------------------------------------------------------
// Live engine behind a loopback server.
// ---------------------------------------------------------------------------

/// A LiveIndex behind a WalrusServer with one reactor and two workers,
/// plus client connections. Close() tears down in dependency order.
struct LiveSession {
  std::string dir;
  std::unique_ptr<LiveIndex> live;
  std::unique_ptr<WalrusServer> server;
  std::vector<WalrusClient> clients;

  ~LiveSession() { Close(); }

  void Close() {
    clients.clear();
    if (server != nullptr) server->Stop();
    server.reset();
    live.reset();
    if (!dir.empty()) RemoveTree(dir);
    dir.clear();
  }
};

walrus::ServerOptions SmallServerOptions() {
  walrus::ServerOptions options;
  options.reactor_threads = 1;
  options.num_workers = 2;
  return options;
}

/// Opens a fresh live index seeded with `seed` in `dir`, optionally behind
/// a server with `connections` clients. merge_threshold 0 means merges
/// happen only when the caller asks.
Status StartLive(const WalrusIndex& seed, const std::string& dir,
                 size_t merge_threshold, int connections,
                 LiveSession* session) {
  RemoveTree(dir);
  WALRUS_RETURN_IF_ERROR(MakeDirs(dir));
  session->dir = dir;
  LiveIndex::Options options;
  options.num_shards = 1;
  options.cache_capacity = 0;
  options.merge_threshold = merge_threshold;
  WALRUS_ASSIGN_OR_RETURN(session->live,
                          LiveIndex::Open(dir, seed.params(), options, &seed));
  if (connections == 0) return Status::OK();
  session->server = std::make_unique<WalrusServer>(
      *session->live, session->live.get(), SmallServerOptions());
  WALRUS_RETURN_IF_ERROR(session->server->Start());
  for (int i = 0; i < connections; ++i) {
    WALRUS_ASSIGN_OR_RETURN(
        WalrusClient client,
        WalrusClient::Connect("127.0.0.1", session->server->port()));
    session->clients.push_back(std::move(client));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Traced run: one caller, spans around each layer's public call.
// ---------------------------------------------------------------------------

struct TraceInputs {
  WalrusParams params;
  /// Index the pipeline stages and QueryEngine::RunQuery run against.
  const WalrusIndex* stage_index = nullptr;
  /// In-memory tree for spatial.*; page tree for storage.*.
  const WalrusIndex* memory_index = nullptr;
  const WalrusIndex* paged_index = nullptr;
  const ScenePool* query_pool = nullptr;
  std::vector<QueryOp> queries;
  const ScenePool* insert_pool = nullptr;
  std::vector<WriterOp> mutations;
  /// live_mixed: wire queries go to the live server, and mutations
  /// interleave with queries as the workload's two connections do.
  bool live_workload = false;
  SetupTimes setup;
};

struct DiskCounters {
  int64_t pages_read = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  static DiskCounters Read(const WalrusIndex& index) {
    const walrus::DiskRStarTree* disk = index.disk_tree();
    if (disk == nullptr) return {};
    return {disk->pages_read(), disk->cache_hits(), disk->cache_misses()};
  }
};

/// Per-operation counts gathered while tracing.
struct LayerCounts {
  std::vector<double> windows, rebuilds, subclusters, query_regions;
  std::vector<double> candidate_images, candidate_pairs, nodes_visited;
  std::vector<double> pages_read, request_bytes;
  int64_t prefilter_in = 0, prefilter_out = 0;
  int64_t cache_hits = 0, cache_misses = 0;
  std::vector<double> assemble_ms, unattributed_ms, query_overhead_ms;
  std::vector<double> insert_overhead_ms;
};

class TracedRun {
 public:
  TracedRun(const Args& args, const TraceInputs& in, Tally* tally)
      : args_(args), in_(in), tally_(tally), engine_(*in.stage_index) {}

  Status Run(std::vector<Metric>* metrics);

 private:
  Status RunQueryOp(int64_t op_id, const QueryOp& op);
  Status RunMutationOp(int64_t op_id, const WriterOp& op);

  const Args& args_;
  const TraceInputs& in_;
  Tally* tally_;
  walrus::SingleIndexEngine engine_;
  Tracer tracer_;
  LayerCounts counts_;
  LiveSession inproc_;  // LiveIndex driven in process, explicit merges
  LiveSession served_;  // LiveIndex behind the server, background merges
  std::unique_ptr<WalrusServer> query_server_;  // read-only, over engine_
  std::optional<WalrusClient> query_client_;
  std::unique_ptr<walrus::WriteAheadLog> wal_;
};

Status TracedRun::RunQueryOp(int64_t op_id, const QueryOp& op) {
  WALRUS_ASSIGN_OR_RETURN(ImageF image, in_.query_pool->Load(op.scene));
  const QueryOptions options = PaperOptions(op.epsilon);
  const WalrusParams& params = in_.params;
  tracer_.Begin("op.query", op_id);

  tracer_.Begin("core.run_query", op_id);
  Result<std::vector<QueryMatch>> answer = engine_.RunQuery(image, options);
  const double run_ms = tracer_.End();
  WALRUS_RETURN_IF_ERROR(answer.status());

  // The same query through the pipeline stages, one call each.
  tracer_.Begin("core.stages", op_id);
  tracer_.Begin("core.extract", op_id);
  Result<walrus::ExtractedQuery> extracted =
      walrus::ExtractQueryRegions(image, params);
  double stage_ms = tracer_.End();
  WALRUS_RETURN_IF_ERROR(extracted.status());
  walrus::ProbeDiagnostics diag;
  tracer_.Begin("core.probe", op_id);
  Result<std::vector<walrus::CandidateImage>> candidates =
      walrus::ProbeCandidates(*in_.stage_index, extracted->regions, options,
                              &diag);
  stage_ms += tracer_.End();
  WALRUS_RETURN_IF_ERROR(candidates.status());
  tracer_.Begin("core.match", op_id);
  Result<std::vector<QueryMatch>> scored = walrus::ScoreCandidates(
      *in_.stage_index, extracted->regions, extracted->query_area, options,
      *candidates);
  stage_ms += tracer_.End();
  WALRUS_RETURN_IF_ERROR(scored.status());
  tracer_.Begin("core.rank", op_id);
  walrus::RankMatches(&*scored, options.top_k);
  stage_ms += tracer_.End();
  tracer_.End();  // core.stages
  tally_->Record(SameMatches(*scored, *answer));
  counts_.unattributed_ms.push_back(run_ms - stage_ms);
  counts_.query_regions.push_back(extracted->regions.size());
  counts_.candidate_images.push_back(candidates->size());
  double pairs = 0;
  for (const walrus::CandidateImage& c : *candidates) pairs += c.pairs.size();
  counts_.candidate_pairs.push_back(pairs);
  counts_.prefilter_in += diag.prefilter_candidates_in;
  counts_.prefilter_out += diag.prefilter_candidates_out;

  // Extraction decomposed: window signatures, BIRCH over those windows,
  // and region extraction from the same windows (BIRCH + assembly).
  tracer_.Begin("extract.layers", op_id);
  tracer_.Begin("wavelet.window_signatures", op_id);
  Result<walrus::WindowSignatureSet> windows =
      walrus::ComputeWindowSignatures(image, params);
  tracer_.End();
  WALRUS_RETURN_IF_ERROR(windows.status());
  walrus::BirchParams birch;
  birch.threshold = params.cluster_epsilon;
  birch.branching = params.birch_branching;
  birch.leaf_entries = params.birch_leaf_entries;
  tracer_.Begin("cluster.birch", op_id);
  walrus::BirchResult clusters = walrus::BirchPreCluster(
      windows->signatures.data(), windows->Count(), windows->dim, birch);
  const double birch_ms = tracer_.End();
  tracer_.Begin("core.extract_from_windows", op_id);
  std::vector<walrus::Region> regions = walrus::ExtractRegionsFromWindows(
      *windows, image.width(), image.height(), params);
  counts_.assemble_ms.push_back(tracer_.End() - birch_ms);
  tracer_.End();  // extract.layers
  counts_.windows.push_back(windows->Count());
  counts_.rebuilds.push_back(clusters.rebuilds);
  counts_.subclusters.push_back(clusters.clusters.size());
  tally_->Record(regions.size() == extracted->regions.size());

  // The epsilon-expanded query rects against the in-memory and paged
  // trees (one caller, so the tree-wide counters belong to this call).
  std::vector<walrus::Rect> rects;
  for (const walrus::Region& region : extracted->regions) {
    rects.push_back(region.IndexRect(false).Expanded(options.epsilon));
  }
  int64_t memory_hits = 0;
  int64_t paged_hits = 0;
  tracer_.Begin("probe.layers", op_id);
  tracer_.Begin("spatial.probe_batch", op_id);
  Status probe = in_.memory_index->ProbeRangeBatch(
      rects, [&](int, const walrus::Rect&, uint64_t) {
        ++memory_hits;
        return true;
      });
  tracer_.End();
  WALRUS_RETURN_IF_ERROR(probe);
  counts_.nodes_visited.push_back(in_.memory_index->tree().last_nodes_visited());
  const DiskCounters before = DiskCounters::Read(*in_.paged_index);
  tracer_.Begin("storage.probe_batch", op_id);
  probe = in_.paged_index->ProbeRangeBatch(
      rects, [&](int, const walrus::Rect&, uint64_t) {
        ++paged_hits;
        return true;
      });
  tracer_.End();
  WALRUS_RETURN_IF_ERROR(probe);
  tracer_.End();  // probe.layers
  const DiskCounters after = DiskCounters::Read(*in_.paged_index);
  counts_.pages_read.push_back(after.pages_read - before.pages_read);
  counts_.cache_hits += after.hits - before.hits;
  counts_.cache_misses += after.misses - before.misses;
  tally_->Record(memory_hits == paged_hits);

  // The live engine in process, then the wire: codecs on this query's own
  // payloads and the client round trip.
  tracer_.Begin("live.query", op_id);
  Result<std::vector<QueryMatch>> live_answer =
      inproc_.live->RunQuery(image, options);
  tracer_.End();
  WALRUS_RETURN_IF_ERROR(live_answer.status());
  if (!in_.live_workload) tally_->Record(SameMatches(*live_answer, *answer));

  tracer_.Begin("server.codec", op_id);
  walrus::BinaryWriter request;
  walrus::EncodeQueryOptions(options, &request);
  walrus::EncodeImage(image, &request);
  walrus::BinaryReader request_reader(request.buffer());
  Result<QueryOptions> decoded_options =
      walrus::DecodeQueryOptions(&request_reader);
  Result<ImageF> decoded_image = walrus::DecodeImage(&request_reader);
  walrus::BinaryWriter response;
  walrus::EncodeMatches(*answer, &response);
  walrus::BinaryReader response_reader(response.buffer());
  Result<std::vector<QueryMatch>> decoded_matches =
      walrus::DecodeMatches(&response_reader);
  tracer_.End();
  tally_->Record(decoded_options.ok() && decoded_image.ok() &&
                 decoded_matches.ok() && SameMatches(*decoded_matches, *answer));
  counts_.request_bytes.push_back(request.size() + walrus::kFrameHeaderBytes +
                                  walrus::kFrameTrailerBytes);

  WalrusClient& client =
      in_.live_workload ? served_.clients[0] : *query_client_;
  tracer_.Begin("server.query", op_id);
  Result<walrus::RemoteQueryResult> remote = client.Query(image, options);
  const double round_trip_ms = tracer_.End();
  WALRUS_RETURN_IF_ERROR(remote.status());
  counts_.query_overhead_ms.push_back(round_trip_ms -
                                      remote->stats.seconds * 1e3);
  // Both live engines have applied the same mutations at this point.
  tally_->Record(SameMatches(remote->matches,
                             in_.live_workload ? *live_answer : *answer));
  tracer_.End();  // op.query
  return Status::OK();
}

Status TracedRun::RunMutationOp(int64_t op_id, const WriterOp& op) {
  LiveIndex& live = *inproc_.live;
  WalrusClient& client = served_.clients[0];
  if (!op.insert) {
    tracer_.Begin("op.delete", op_id);
    tracer_.Begin("live.delete", op_id);
    const Status local = live.DeleteImage(op.id);
    tracer_.End();
    tracer_.Begin("server.delete", op_id);
    const Status remote = client.DeleteImage(op.id);
    tracer_.End();
    tally_->Record(local.ok() && remote.ok());
  } else {
    WALRUS_ASSIGN_OR_RETURN(ImageF image, in_.insert_pool->Load(op.scene));
    tracer_.Begin("op.insert", op_id);
    tracer_.Begin("wal.extract_record", op_id);
    Result<walrus::ImageRecord> record = WalrusIndex::ExtractImageRecord(
        in_.params, op.id, "", image);
    tracer_.End();
    WALRUS_RETURN_IF_ERROR(record.status());
    walrus::BinaryWriter body;
    record->Serialize(&body);
    tracer_.Begin("wal.commit", op_id);
    Result<uint64_t> lsn =
        wal_->Append(walrus::WalRecordType::kInsertImage, body.buffer());
    const Status committed = lsn.ok() ? wal_->Commit(*lsn) : lsn.status();
    tracer_.End();
    WALRUS_RETURN_IF_ERROR(committed);
    tracer_.Begin("live.insert", op_id);
    const Status local = live.InsertImage(op.id, "", image);
    const double local_ms = tracer_.End();
    tracer_.Begin("server.insert", op_id);
    const Status remote = client.InsertImage(op.id, "", image);
    counts_.insert_overhead_ms.push_back(tracer_.End() - local_ms);
    tally_->Record(local.ok() && remote.ok());
  }
  // Same trigger as the background merge (delta images + tombstones at
  // the threshold), run explicitly so its duration is timed and the merge
  // points depend on the operation sequence alone.
  const walrus::IngestStats stats = live.IngestStatsSnapshot();
  if (stats.delta_images + stats.tombstones >= kLiveMergeThreshold) {
    tracer_.Begin("live.merge", op_id);
    const Status merged = live.Merge();
    tracer_.End();
    WALRUS_RETURN_IF_ERROR(merged);
  }
  tracer_.End();  // op.insert / op.delete
  return Status::OK();
}

Status TracedRun::Run(std::vector<Metric>* metrics) {
  const WalrusIndex& seed = *in_.memory_index;
  WALRUS_RETURN_IF_ERROR(
      StartLive(seed, args_.work_dir + "/live_inproc", 0, 0, &inproc_));
  WALRUS_RETURN_IF_ERROR(StartLive(seed, args_.work_dir + "/live_served",
                                   kLiveMergeThreshold, 1, &served_));
  if (!in_.live_workload) {
    query_server_ = std::make_unique<WalrusServer>(
        static_cast<const walrus::QueryEngine&>(engine_),
        SmallServerOptions());
    WALRUS_RETURN_IF_ERROR(query_server_->Start());
    WALRUS_ASSIGN_OR_RETURN(
        WalrusClient client,
        WalrusClient::Connect("127.0.0.1", query_server_->port()));
    query_client_.emplace(std::move(client));
  }
  walrus::WalScan scan;
  const std::string wal_path = args_.work_dir + "/probe.wal";
  std::remove(wal_path.c_str());
  WALRUS_ASSIGN_OR_RETURN(wal_, walrus::WriteAheadLog::Open(wal_path, &scan));

  // Untraced reference: the same queries, same caller count, no spans.
  std::vector<double> untraced_ms;
  for (const QueryOp& op : in_.queries) {
    double ms = 0.0;
    tally_->Record(TimedQuery(engine_, *in_.query_pool, op, nullptr, &ms));
    untraced_ms.push_back(ms);
  }

  // Traced pass. live_mixed alternates a writer and a reader operation, as
  // its two connections do; the other workloads query first, then run the
  // ingest layers on their own data.
  int64_t op_id = 0;
  const size_t rounds = std::max(in_.queries.size(), in_.mutations.size());
  if (in_.live_workload) {
    for (size_t i = 0; i < rounds; ++i) {
      if (i < in_.mutations.size()) {
        WALRUS_RETURN_IF_ERROR(RunMutationOp(op_id++, in_.mutations[i]));
      }
      if (i < in_.queries.size()) {
        WALRUS_RETURN_IF_ERROR(RunQueryOp(op_id++, in_.queries[i]));
      }
    }
  } else {
    for (const QueryOp& op : in_.queries) {
      WALRUS_RETURN_IF_ERROR(RunQueryOp(op_id++, op));
    }
    for (const WriterOp& op : in_.mutations) {
      WALRUS_RETURN_IF_ERROR(RunMutationOp(op_id++, op));
    }
  }
  served_.live->WaitForMerge();
  const walrus::IngestStats served_stats = served_.live->IngestStatsSnapshot();
  const walrus::IngestStats inproc_stats = inproc_.live->IngestStatsSnapshot();

  const std::string trace_path = args_.trace_dir + "/trace-" +
                                 args_.workload + "-" +
                                 std::to_string(args_.seed) + ".jsonl";
  if (!tracer_.WriteJsonLines(trace_path)) {
    return Status::IOError("cannot write " + trace_path);
  }
  std::printf("# spans written to %s\n", trace_path.c_str());
  tracer_.PrintSummary();

  auto p50 = [&](const char* span) { return Median(tracer_.Durations(span)); };
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double untraced_p50 = Median(untraced_ms);
  const double traced_p50 = p50("core.run_query");
  *metrics = {
      {"wavelet.window_signatures_ms", p50("wavelet.window_signatures"), "ms"},
      {"wavelet.windows", Mean(counts_.windows), "count"},
      {"cluster.birch_ms", p50("cluster.birch"), "ms"},
      {"cluster.birch_rebuilds", Mean(counts_.rebuilds), "count"},
      {"cluster.subclusters", Mean(counts_.subclusters), "count"},
      {"core.assemble_ms", Median(counts_.assemble_ms), "ms"},
      {"core.extract_ms", p50("core.extract"), "ms"},
      {"core.query_regions", Mean(counts_.query_regions), "count"},
      {"core.probe_ms", p50("core.probe"), "ms"},
      {"core.prefilter_in", ratio(counts_.prefilter_in, in_.queries.size()),
       "count"},
      {"core.prefilter_out", ratio(counts_.prefilter_out, in_.queries.size()),
       "count"},
      {"core.prefilter_keep_ratio",
       ratio(counts_.prefilter_out, counts_.prefilter_in), "ratio"},
      {"core.candidate_images", Mean(counts_.candidate_images), "count"},
      {"core.candidate_pairs", Mean(counts_.candidate_pairs), "count"},
      {"spatial.probe_batch_ms", p50("spatial.probe_batch"), "ms"},
      {"spatial.nodes_visited", Mean(counts_.nodes_visited), "count"},
      {"storage.probe_batch_ms", p50("storage.probe_batch"), "ms"},
      {"storage.pages_read", Mean(counts_.pages_read), "count"},
      {"storage.cache_hit_ratio",
       ratio(counts_.cache_hits, counts_.cache_hits + counts_.cache_misses),
       "ratio"},
      {"storage.save_s", in_.setup.save_s, "s"},
      {"storage.open_s", in_.setup.open_s, "s"},
      {"core.match_ms", p50("core.match"), "ms"},
      {"core.rank_ms", p50("core.rank"), "ms"},
      {"core.unattributed_ms", Median(counts_.unattributed_ms), "ms"},
      {"core.build_s", in_.setup.build_s, "s"},
      {"wal.extract_record_ms", p50("wal.extract_record"), "ms"},
      {"wal.commit_ms", p50("wal.commit"), "ms"},
      {"wal.records_per_sync",
       ratio(served_stats.wal_records, served_stats.wal_syncs), "count"},
      {"live.insert_ms", p50("live.insert"), "ms"},
      {"live.query_ms", p50("live.query"), "ms"},
      {"live.merge_ms", p50("live.merge"), "ms"},
      {"live.merges", static_cast<double>(inproc_stats.merges), "count"},
      {"server.query_overhead_ms", Median(counts_.query_overhead_ms), "ms"},
      {"server.insert_overhead_ms", Median(counts_.insert_overhead_ms), "ms"},
      {"server.codec_ms", p50("server.codec"), "ms"},
      {"server.request_bytes", Mean(counts_.request_bytes), "bytes"},
      {"trace.untraced_query_p50_ms", untraced_p50, "ms"},
      {"trace.traced_query_p50_ms", traced_p50, "ms"},
      {"trace.overhead_pct", 100.0 * ratio(traced_p50 - untraced_p50,
                                           untraced_p50),
       "%"},
  };
  query_client_.reset();
  if (query_server_ != nullptr) query_server_->Stop();
  served_.Close();
  inproc_.Close();
  return Status::OK();
}

/// Builds the indexes a traced run needs (one set-up), then runs it.
Status RunTraced(const Args& args, TraceInputs* in, const IndexPair& pair,
                 bool stage_on_paged, std::vector<Metric>* metrics,
                 Tally* tally) {
  // The page tree for storage.*: the workload's own when it is paged,
  // else a paged copy of the same index, whose save and open are timed.
  std::unique_ptr<WalrusIndex> paged_copy;
  const WalrusIndex* paged = pair.opened.get();
  if (!stage_on_paged) {
    const std::string prefix = args.work_dir + "/paged_copy";
    Stopwatch save;
    WALRUS_RETURN_IF_ERROR(pair.built->SavePaged(prefix));
    in->setup.save_s = save.Seconds();
    Stopwatch open;
    WALRUS_ASSIGN_OR_RETURN(WalrusIndex opened, WalrusIndex::OpenPaged(prefix));
    in->setup.open_s = open.Seconds();
    paged_copy = std::make_unique<WalrusIndex>(std::move(opened));
    paged = paged_copy.get();
  }
  in->stage_index = pair.opened.get();
  in->memory_index = pair.built.get();
  in->paged_index = paged;
  TracedRun run(args, *in, tally);
  return run.Run(metrics);
}

// ---------------------------------------------------------------------------
// In-process workloads: extract_bound and table1_paged.
// ---------------------------------------------------------------------------

struct InProcessWorkload {
  int slide_step = 4;
  bool paged = false;
  int setup_reps = kSetupReps;
  const ScenePool* base_pool = nullptr;
  std::vector<Entry> base;
  const ScenePool* query_pool = nullptr;
  std::vector<QueryOp> distinct;
  /// Timed passes, each a seeded replay of `distinct`.
  std::vector<std::vector<QueryOp>> passes;
  /// Scenes inserted (under fresh ids) between the timed passes.
  std::vector<int> insert_scenes;
};

int RunInProcess(const Args& args, const InProcessWorkload& w) {
  const WalrusParams params = PaperParams(w.slide_step);
  const std::string prefix = args.work_dir + "/index";
  Tally tally;
  std::printf("# harness holds at most %.1f MB of decoded input images\n",
              kBuildChunk * w.base_pool->ImageBytes() / 1048576.0);

  if (args.trace) {
    SetupTimes times;
    Result<IndexPair> pair =
        SetupIndex(*w.base_pool, w.base, params, prefix, w.paged, &times);
    if (!pair.ok()) {
      Fail(pair.status(), "setup");
      return 1;
    }
    TraceInputs in;
    in.params = params;
    in.query_pool = w.query_pool;
    const size_t traced_queries = w.paged ? 150 : 60;
    walrus::Rng rng(args.seed, 11);
    in.queries = ReplaySequence(w.distinct, traced_queries, &rng);
    in.insert_pool = w.base_pool;
    in.mutations = WriterSequence(w.base, w.insert_scenes, kTracedMutations,
                                  &rng, nullptr);
    in.setup = times;
    std::vector<Metric> metrics;
    const Status status = RunTraced(args, &in, *pair, w.paged, &metrics, &tally);
    if (!status.ok()) {
      Fail(status, "traced run");
      return 1;
    }
    PrintResult(tally.failed == 0, tally.attempted, tally.failed, metrics);
    return 0;
  }

  // Set up several times; keep the last.
  std::vector<double> setup_s;
  IndexPair pair;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    pair = IndexPair{};
    SetupTimes times;
    Result<IndexPair> made =
        SetupIndex(*w.base_pool, w.base, params, prefix, w.paged, &times);
    if (!made.ok()) {
      Fail(made.status(), "setup");
      return 1;
    }
    pair = std::move(*made);
    setup_s.push_back(times.Total());
    std::printf("# setup %d: build %.3f s, save %.3f s, open %.3f s\n", rep,
                times.build_s, times.save_s, times.open_s);
  }

  // Reference answers from the in-memory index the run built (untimed).
  const walrus::SingleIndexEngine reference_engine(*pair.built);
  const walrus::SingleIndexEngine engine(*pair.opened);
  std::vector<std::vector<QueryMatch>> reference(w.distinct.size());
  LoopResult ref = ClosedLoop(kCallers, w.distinct.size(),
                              [&](size_t i, double* ms) {
    return TimedQuery(reference_engine, *w.query_pool, w.distinct[i], nullptr,
                      ms, &reference[i]);
  });
  tally.Record(ref.ok);

  // The timed passes, each a seeded replay of the distinct queries; every
  // answer is checked against the reference. After each pass a slice of
  // the inserts (WalrusIndex::AddImage into the in-memory index, one
  // caller), so that both latency populations sample the whole run.
  auto check = [&](const std::vector<QueryOp>& ops) {
    return [&](size_t i, double* ms) {
      return TimedQuery(engine, *w.query_pool, ops[i],
                        &reference[ops[i].distinct], ms);
    };
  };
  const size_t images_before = pair.built->ImageCount();
  const int slice = kInProcessInserts / static_cast<int>(w.passes.size());
  int inserted = 0;
  auto insert_slice = [&](int count, std::vector<double>* ms) {
    for (const int end = inserted + count; inserted < end; ++inserted) {
      const int scene = w.insert_scenes[inserted % w.insert_scenes.size()];
      Result<ImageF> image = w.base_pool->Load(scene);
      if (!image.ok()) {
        tally.Record(false);
        continue;
      }
      Stopwatch timer;
      const Status added =
          pair.built->AddImage(kInsertIdBase + inserted, "", *image);
      ms->push_back(timer.Ms());
      tally.Record(added.ok());
    }
  };
  // Warm-up, untimed: one pass over the distinct queries and one slice of
  // inserts, the same cycle as a timed pass. Queries only reach their
  // steady speed once a first insert slice has run (glibc's adaptive mmap
  // threshold settles then; with it pinned, no pass is slow); without the
  // slice the first timed pass runs ~15% slow.
  std::vector<double> warm_ms;
  tally.Record(ClosedLoop(kCallers, w.distinct.size(), check(w.distinct)).ok);
  insert_slice(slice, &warm_ms);
  std::vector<double> query_ms;
  std::vector<double> pass_throughput;
  std::vector<double> insert_ms;
  for (size_t p = 0; p < w.passes.size(); ++p) {
    LoopResult timed =
        ClosedLoop(kCallers, w.passes[p].size(), check(w.passes[p]));
    tally.Record(timed.ok);
    query_ms.insert(query_ms.end(), timed.ms.begin(), timed.ms.end());
    pass_throughput.push_back(w.passes[p].size() / timed.wall_s);
    const int slice_end =
        slice + static_cast<int>(kInProcessInserts * (p + 1) / w.passes.size());
    insert_slice(slice_end - inserted, &insert_ms);
  }
  tally.Record(pair.built->ImageCount() ==
               images_before + slice + kInProcessInserts);
  ReportLatency("query", query_ms);
  ReportLatency("insert", insert_ms);
  ReportPasses(pass_throughput);

  const double regions = static_cast<double>(pair.opened->RegionCount());
  const std::vector<Metric> metrics = {
      {"throughput_ops_s", Median(pass_throughput), "1/s"},
      {"query_p50_ms", Quantile(query_ms, 0.5), "ms"},
      {"query_p99_ms", Quantile(query_ms, 0.99), "ms"},
      {"insert_p50_ms", Quantile(insert_ms, 0.5), "ms"},
      {"insert_p99_ms", Quantile(insert_ms, 0.99), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"disk_bytes_per_region", pair.disk_bytes / regions, "bytes"},
      {"setup_s", Median(setup_s), "s"},
  };
  std::printf("# %zu images, %.0f regions, %llu bytes on disk\n",
              pair.opened->ImageCount(), regions,
              static_cast<unsigned long long>(pair.disk_bytes));
  PrintResult(tally.failed == 0, tally.attempted, tally.failed, metrics);
  return 0;
}

// ---------------------------------------------------------------------------
// live_mixed.
// ---------------------------------------------------------------------------

struct LiveWorkload {
  const ScenePool* pool = nullptr;
  std::vector<Entry> seed;
  std::vector<WriterOp> writer;
  std::vector<QueryOp> reader;
  /// The timed pass runs the two sequences in this many segments (the
  /// connections meet at each segment's end); throughput is the median
  /// over segments.
  size_t segments = 1;
  std::vector<QueryOp> probes;
  std::vector<Entry> final_set;
};

/// Set-up of one live session: seed build, persist + reopen, then
/// LiveIndex::Open, server start and the two client connects.
Status SetupLive(const Args& args, const LiveWorkload& w,
                 const WalrusParams& params, SetupTimes* times,
                 LiveSession* session) {
  SetupTimes index_times;
  WALRUS_ASSIGN_OR_RETURN(
      IndexPair pair, SetupIndex(*w.pool, w.seed, params,
                                 args.work_dir + "/seed", false, &index_times));
  *times = index_times;
  pair.built.reset();
  Stopwatch serve;
  WALRUS_RETURN_IF_ERROR(StartLive(*pair.opened, args.work_dir + "/live",
                                   kLiveMergeThreshold, 2, session));
  times->serve_s = serve.Seconds();
  return Status::OK();
}

/// The writer and reader connections, concurrently, each in a closed loop.
struct LivePass {
  LoopResult writer;
  LoopResult reader;
  double wall_s = 0.0;
};

/// Runs segment `segment` of `w.segments`: the matching slices of the
/// writer and reader sequences, concurrently; returns when both finish.
LivePass RunLivePass(const LiveWorkload& w, size_t segment,
                     LiveSession* session) {
  auto slice = [&](size_t size) {
    return std::make_pair(size * segment / w.segments,
                          size * (segment + 1) / w.segments);
  };
  const auto [writer_begin, writer_end] = slice(w.writer.size());
  const auto [reader_begin, reader_end] = slice(w.reader.size());
  LivePass pass;
  Stopwatch wall;
  std::thread writer([&] {
    WalrusClient& client = session->clients[0];
    pass.writer = ClosedLoop(1, writer_end - writer_begin,
                             [&](size_t i, double* ms) {
      const WriterOp& op = w.writer[writer_begin + i];
      Result<ImageF> image =
          op.insert ? w.pool->Load(op.scene) : Result<ImageF>(ImageF());
      if (!image.ok()) return false;
      Stopwatch timer;
      const Status status = op.insert
                                ? client.InsertImage(op.id, "", *image)
                                : client.DeleteImage(op.id);
      *ms = timer.Ms();
      if (!status.ok()) Fail(status, op.insert ? "insert" : "delete");
      return status.ok();
    });
  });
  std::thread reader([&] {
    WalrusClient& client = session->clients[1];
    pass.reader = ClosedLoop(1, reader_end - reader_begin,
                             [&](size_t i, double* ms) {
      const QueryOp& op = w.reader[reader_begin + i];
      Result<ImageF> image = w.pool->Load(op.scene);
      if (!image.ok()) return false;
      Stopwatch timer;
      Result<walrus::RemoteQueryResult> result =
          client.Query(*image, PaperOptions(op.epsilon));
      *ms = timer.Ms();
      if (!result.ok()) Fail(result.status(), "remote query");
      return result.ok();
    });
  });
  writer.join();
  reader.join();
  pass.wall_s = wall.Seconds();
  return pass;
}

int RunLiveMixed(const Args& args, const LiveWorkload& w) {
  const WalrusParams params = PaperParams(8);
  Tally tally;
  std::printf("# harness holds at most %.1f MB of decoded input images\n",
              kBuildChunk * w.pool->ImageBytes() / 1048576.0);

  if (args.trace) {
    SetupTimes times;
    Result<IndexPair> pair = SetupIndex(*w.pool, w.seed, params,
                                        args.work_dir + "/seed", false, &times);
    if (!pair.ok()) {
      Fail(pair.status(), "setup");
      return 1;
    }
    TraceInputs in;
    in.params = params;
    in.query_pool = w.pool;
    in.queries.assign(w.reader.begin(),
                      w.reader.begin() + std::min(kTracedLiveQueries, w.reader.size()));
    in.insert_pool = w.pool;
    in.mutations.assign(
        w.writer.begin(),
        w.writer.begin() + std::min(kTracedMutations, w.writer.size()));
    in.live_workload = true;
    in.setup = times;
    std::vector<Metric> metrics;
    const Status status = RunTraced(args, &in, *pair, false, &metrics, &tally);
    if (!status.ok()) {
      Fail(status, "traced run");
      return 1;
    }
    PrintResult(tally.failed == 0, tally.attempted, tally.failed, metrics);
    return 0;
  }

  std::vector<double> setup_s;
  auto setup = [&](LiveSession* session) {
    SetupTimes times;
    const Status status = SetupLive(args, w, params, &times, session);
    if (!status.ok()) {
      Fail(status, "setup");
      return false;
    }
    setup_s.push_back(times.Total());
    std::printf("# setup: build %.3f s, save %.3f s, open %.3f s, "
                "live+serve %.3f s\n",
                times.build_s, times.save_s, times.open_s, times.serve_s);
    return true;
  };

  // Session 1: the untimed warm-up, the first segment of the sequence.
  {
    LiveSession session;
    if (!setup(&session)) return 1;
    LivePass warm = RunLivePass(w, 0, &session);
    tally.Record(warm.writer.ok);
    tally.Record(warm.reader.ok);
  }
  // Session 2: the timed pass, then the determinism and answer checks.
  LiveSession session;
  if (!setup(&session)) return 1;
  std::vector<double> query_ms;
  std::vector<double> insert_ms;
  std::vector<double> segment_throughput;
  size_t writer_op = 0;
  for (size_t segment = 0; segment < w.segments; ++segment) {
    LivePass pass = RunLivePass(w, segment, &session);
    tally.Record(pass.writer.ok);
    tally.Record(pass.reader.ok);
    query_ms.insert(query_ms.end(), pass.reader.ms.begin(),
                    pass.reader.ms.end());
    for (double ms : pass.writer.ms) {
      if (w.writer[writer_op++].insert) insert_ms.push_back(ms);
    }
    segment_throughput.push_back(
        (pass.writer.ms.size() + pass.reader.ms.size()) / pass.wall_s);
  }
  ReportLatency("query", query_ms);
  ReportLatency("insert", insert_ms);
  ReportPasses(segment_throughput);

  // Settle: the persisted base then depends on the sequence alone.
  LiveIndex& live = *session.live;
  live.WaitForMerge();
  const Status merged = live.Merge();
  tally.Record(merged.ok());
  const uint64_t disk_bytes = DirectoryBytes(session.dir);
  const double regions = static_cast<double>(live.RegionCount());
  std::printf("# live: %zu images, %.0f regions, %llu bytes on disk, "
              "%llu merges\n",
              live.ImageCount(), regions,
              static_cast<unsigned long long>(disk_bytes),
              static_cast<unsigned long long>(live.IngestStatsSnapshot().merges));

  // Offline rebuild of the final live image set (untimed): fixed probe
  // queries over the wire must rank bit-identically.
  WalrusIndex offline(params);
  Result<double> rebuilt = BuildIndex(*w.pool, w.final_set, &offline);
  tally.Record(rebuilt.ok() && offline.ImageCount() == live.ImageCount() &&
               offline.RegionCount() == live.RegionCount());
  for (const QueryOp& probe : w.probes) {
    Result<ImageF> image = w.pool->Load(probe.scene);
    if (!image.ok() || !rebuilt.ok()) {
      tally.Record(false);
      continue;
    }
    const QueryOptions options = PaperOptions(probe.epsilon);
    Result<walrus::RemoteQueryResult> remote =
        session.clients[1].Query(*image, options);
    Result<std::vector<QueryMatch>> expected =
        walrus::ExecuteQuery(offline, *image, options);
    tally.Record(remote.ok() && expected.ok() &&
                 SameMatches(remote->matches, *expected));
  }
  session.Close();

  // Session 3: set-up only, for the median.
  {
    LiveSession spare;
    if (!setup(&spare)) return 1;
  }

  const std::vector<Metric> metrics = {
      {"throughput_ops_s", Median(segment_throughput), "1/s"},
      {"query_p50_ms", Quantile(query_ms, 0.5), "ms"},
      {"query_p99_ms", Quantile(query_ms, 0.99), "ms"},
      {"insert_p50_ms", Quantile(insert_ms, 0.5), "ms"},
      {"insert_p99_ms", Quantile(insert_ms, 0.99), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"disk_bytes_per_region", disk_bytes / regions, "bytes"},
      {"setup_s", Median(setup_s), "s"},
  };
  PrintResult(tally.failed == 0, tally.attempted, tally.failed, metrics);
  return 0;
}

}  // namespace

int PrepareInputs(const Args& args) {
  Result<ScenePool> pool =
      ScenePool::Open(args.cache_dir, "corpus", kPoolScenes, kPoolSide);
  Result<ScenePool> big =
      ScenePool::Open(args.cache_dir, "heldout", kBigPoolScenes, kBigPoolSide);
  if (!pool.ok() || !big.ok()) {
    Fail(pool.ok() ? big.status() : pool.status(), "scene pool");
    return 1;
  }
  return 0;
}

int RunWorkload(const Args& args) {
  Result<ScenePool> pool =
      ScenePool::Open(args.cache_dir, "corpus", kPoolScenes, kPoolSide);
  if (!pool.ok()) {
    Fail(pool.status(), "scene pool");
    return 1;
  }
  walrus::Rng rng(args.seed, 7);
  const std::vector<int> perm = Permutation(kPoolScenes, &rng);
  auto slice = [&](size_t begin, size_t count) {
    return std::vector<int>(perm.begin() + begin, perm.begin() + begin + count);
  };
  const size_t seconds = static_cast<size_t>(std::max(1, args.seconds));

  if (args.workload == "extract_bound") {
    Result<ScenePool> big =
        ScenePool::Open(args.cache_dir, "heldout", kBigPoolScenes, kBigPoolSide);
    if (!big.ok()) {
      Fail(big.status(), "scene pool");
      return 1;
    }
    InProcessWorkload w;
    w.slide_step = 4;
    w.setup_reps = kSetupRepsExtractBound;
    w.base_pool = &*pool;
    w.base = EntriesFor(slice(0, 300));
    w.insert_scenes = slice(300, 1000);
    w.query_pool = &*big;
    const std::vector<int> big_perm = Permutation(kBigPoolScenes, &rng);
    for (int i = 0; i < 200; ++i) {
      w.distinct.push_back({big_perm[i], kExtractEps, i});
    }
    w.passes = TimedPasses(w.distinct, seconds * kExtractBoundRate, &rng);
    return RunInProcess(args, w);
  }
  if (args.workload == "table1_paged") {
    InProcessWorkload w;
    w.slide_step = 8;
    w.paged = true;
    w.base_pool = &*pool;
    w.base = EntriesFor(slice(0, 6000));
    w.query_pool = &*pool;
    const std::vector<int> queries = slice(6000, 200);
    for (int i = 0; i < 200; ++i) {
      w.distinct.push_back({queries[i], kTable1Eps[i % 5], i});
    }
    w.insert_scenes = slice(6200, 800);
    w.passes = TimedPasses(w.distinct, seconds * kTable1Rate, &rng);
    return RunInProcess(args, w);
  }
  if (args.workload == "live_mixed") {
    LiveWorkload w;
    w.pool = &*pool;
    w.seed = EntriesFor(slice(0, 1000));
    const std::vector<int> queries = slice(2000, 200);
    std::vector<QueryOp> distinct;
    for (int i = 0; i < 200; ++i) {
      distinct.push_back({queries[i], kExtractEps, i});
    }
    w.writer = WriterSequence(w.seed, slice(1000, 1000),
                              static_cast<size_t>(seconds * kLiveWriterRate),
                              &rng, &w.final_set);
    w.reader = ReplaySequence(
        distinct, static_cast<size_t>(seconds * kLiveReaderRate), &rng);
    w.segments = std::max<size_t>(
        1, static_cast<size_t>(std::lround(seconds * kLiveSegmentRate)));
    w.probes.assign(distinct.begin(), distinct.begin() + kLiveProbes);
    return RunLiveMixed(args, w);
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}

}  // namespace perfbench
