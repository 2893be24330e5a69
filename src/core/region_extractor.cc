#include "core/region_extractor.h"

#include <cmath>

#include "cluster/birch.h"
#include "cluster/kmeans.h"
#include "common/check.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/timer.h"

namespace walrus {

namespace {

/// Extraction metrics: how many windows go in, how many regions come out.
struct ExtractorMetrics {
  Counter* extractions;
  Counter* windows;
  Counter* clusters;
  Counter* regions;

  static const ExtractorMetrics& Get() {
    static const ExtractorMetrics metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      ExtractorMetrics m;
      m.extractions = registry.GetCounter("walrus.extract.count");
      m.windows = registry.GetCounter("walrus.extract.windows");
      m.clusters = registry.GetCounter("walrus.extract.clusters");
      m.regions = registry.GetCounter("walrus.extract.regions");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

std::vector<Region> ExtractRegionsFromWindows(
    const WindowSignatureSet& set, int image_width, int image_height,
    const WalrusParams& params, ExtractionStats* stats,
    const WindowSignatureSet* refined_set, QueryTrace* trace) {
  WALRUS_CHECK_GT(set.Count(), 0);
  // Cluster the window signatures: BIRCH pre-clustering (the paper's
  // choice) or k-means (ablation).
  std::vector<std::vector<float>> centroids;
  std::vector<int> assignments;
  double cluster_seconds = 0.0;
  {
    TraceScope cluster_span(trace, "cluster");
    WallTimer cluster_timer;
    if (params.clusterer == ClustererKind::kKMeans) {
      KMeansParams kmeans;
      kmeans.k = params.kmeans_k > 0
                     ? params.kmeans_k
                     : std::max(2, static_cast<int>(
                                       std::sqrt(static_cast<double>(
                                           set.Count())) /
                                       2.0));
      kmeans.seed = 1;
      KMeansResult result =
          KMeansCluster(set.signatures.data(), set.Count(), set.dim, kmeans);
      centroids = std::move(result.centroids);
      assignments = std::move(result.assignments);
    } else {
      BirchParams birch;
      birch.threshold = params.cluster_epsilon;
      birch.branching = params.birch_branching;
      birch.leaf_entries = params.birch_leaf_entries;
      BirchResult result =
          BirchPreCluster(set.signatures.data(), set.Count(), set.dim, birch);
      centroids = std::move(result.centroids);
      assignments = std::move(result.assignments);
    }
    cluster_seconds = cluster_timer.ElapsedSeconds();
  }

  const int num_clusters = static_cast<int>(centroids.size());

  TraceScope assemble_span(trace, "assemble");
  WallTimer assemble_timer;

  // Signature bounding box and coverage bitmap per cluster, from the final
  // point assignments.
  std::vector<Rect> boxes(num_clusters, Rect::Empty(set.dim));
  std::vector<CoverageBitmap> bitmaps(num_clusters,
                                      CoverageBitmap(params.bitmap_side));
  std::vector<uint64_t> member_counts(num_clusters, 0);
  // Refined centroid accumulators (section 5.5).
  int refined_dim = 0;
  std::vector<std::vector<double>> refined_sums;
  if (refined_set != nullptr) {
    WALRUS_CHECK_EQ(refined_set->Count(), set.Count());
    refined_dim = refined_set->dim;
    refined_sums.assign(num_clusters, std::vector<double>(refined_dim, 0.0));
  }
  for (int i = 0; i < set.Count(); ++i) {
    int c = assignments[i];
    const float* sig = set.SignatureAt(i);
    boxes[c].ExpandToInclude(sig, set.dim);
    const WindowPlacement& win = set.windows[i];
    bitmaps[c].MarkWindow(win.x, win.y, win.size, win.size, image_width,
                          image_height);
    ++member_counts[c];
    if (refined_set != nullptr) {
      const float* refined = refined_set->SignatureAt(i);
      for (int d = 0; d < refined_dim; ++d) refined_sums[c][d] += refined[d];
    }
  }

  std::vector<Region> regions;
  regions.reserve(num_clusters);
  for (int c = 0; c < num_clusters; ++c) {
    if (member_counts[c] < static_cast<uint64_t>(params.min_cluster_windows)) {
      continue;
    }
    if (member_counts[c] == 0) continue;  // empty after reassignment
    Region region;
    region.region_id = static_cast<uint32_t>(regions.size());
    region.centroid = centroids[c];
    region.bounding_box = boxes[c];
    region.bitmap = bitmaps[c];
    region.window_count = member_counts[c];
    if (refined_set != nullptr) {
      region.refined_centroid.resize(refined_dim);
      double inv = 1.0 / static_cast<double>(member_counts[c]);
      for (int d = 0; d < refined_dim; ++d) {
        region.refined_centroid[d] =
            static_cast<float>(refined_sums[c][d] * inv);
      }
    }
    regions.push_back(std::move(region));
  }

  const ExtractorMetrics& metrics = ExtractorMetrics::Get();
  metrics.extractions->Increment();
  metrics.windows->Increment(static_cast<uint64_t>(set.Count()));
  metrics.clusters->Increment(static_cast<uint64_t>(num_clusters));
  metrics.regions->Increment(regions.size());

  if (stats != nullptr) {
    stats->window_count = set.Count();
    stats->cluster_count = num_clusters;
    stats->region_count = static_cast<int>(regions.size());
    stats->birch_threshold = params.cluster_epsilon;
    stats->cluster_seconds = cluster_seconds;
    stats->assemble_seconds = assemble_timer.ElapsedSeconds();
  }
  return regions;
}

namespace {

/// Copies the windows of `set` that lie fully inside `scene` (same layout).
WindowSignatureSet FilterToScene(const WindowSignatureSet& set,
                                 const PixelRect& scene) {
  WindowSignatureSet filtered;
  filtered.dim = set.dim;
  for (int i = 0; i < set.Count(); ++i) {
    const WindowPlacement& win = set.windows[i];
    if (!scene.ContainsWindow(win.x, win.y, win.size)) continue;
    filtered.windows.push_back(win);
    const float* sig = set.SignatureAt(i);
    filtered.signatures.insert(filtered.signatures.end(), sig, sig + set.dim);
  }
  return filtered;
}

}  // namespace

Result<std::vector<Region>> ExtractSceneRegions(const ImageF& image,
                                                const PixelRect& scene,
                                                const WalrusParams& params,
                                                ExtractionStats* stats,
                                                QueryTrace* trace) {
  if (scene.width <= 0 || scene.height <= 0 || scene.x < 0 || scene.y < 0 ||
      scene.x + scene.width > image.width() ||
      scene.y + scene.height > image.height()) {
    return Status::InvalidArgument("scene rectangle outside the image");
  }
  WallTimer wavelet_timer;
  Result<WindowSignatureSet> set = Status::Internal("unreachable");
  {
    TraceScope wavelet_span(trace, "wavelet");
    set = ComputeWindowSignatures(image, params);
  }
  WALRUS_RETURN_IF_ERROR(set.status());
  WindowSignatureSet scene_set = FilterToScene(*set, scene);
  if (scene_set.Count() == 0) {
    return Status::InvalidArgument(
        "scene rectangle smaller than the minimum sliding window (" +
        std::to_string(params.min_window) + "px)");
  }
  if (params.refined_signature_size > 0) {
    WalrusParams refined_params = params;
    refined_params.signature_size = params.refined_signature_size;
    refined_params.refined_signature_size = 0;
    Result<WindowSignatureSet> refined = Status::Internal("unreachable");
    {
      TraceScope wavelet_span(trace, "wavelet_refined");
      refined = ComputeWindowSignatures(image, refined_params);
    }
    WALRUS_RETURN_IF_ERROR(refined.status());
    WindowSignatureSet scene_refined = FilterToScene(*refined, scene);
    double wavelet_seconds = wavelet_timer.ElapsedSeconds();
    auto regions =
        ExtractRegionsFromWindows(scene_set, image.width(), image.height(),
                                  params, stats, &scene_refined, trace);
    if (stats != nullptr) stats->wavelet_seconds = wavelet_seconds;
    return regions;
  }
  double wavelet_seconds = wavelet_timer.ElapsedSeconds();
  auto regions = ExtractRegionsFromWindows(
      scene_set, image.width(), image.height(), params, stats, nullptr,
      trace);
  if (stats != nullptr) stats->wavelet_seconds = wavelet_seconds;
  return regions;
}

Result<std::vector<Region>> ExtractRegions(const ImageF& image,
                                           const WalrusParams& params,
                                           ExtractionStats* stats,
                                           QueryTrace* trace) {
  WallTimer wavelet_timer;
  Result<WindowSignatureSet> set = Status::Internal("unreachable");
  {
    TraceScope wavelet_span(trace, "wavelet");
    set = ComputeWindowSignatures(image, params);
  }
  WALRUS_RETURN_IF_ERROR(set.status());
  if (params.refined_signature_size > 0) {
    WalrusParams refined_params = params;
    refined_params.signature_size = params.refined_signature_size;
    refined_params.refined_signature_size = 0;
    Result<WindowSignatureSet> refined = Status::Internal("unreachable");
    {
      TraceScope wavelet_span(trace, "wavelet_refined");
      refined = ComputeWindowSignatures(image, refined_params);
    }
    WALRUS_RETURN_IF_ERROR(refined.status());
    double wavelet_seconds = wavelet_timer.ElapsedSeconds();
    auto regions =
        ExtractRegionsFromWindows(*set, image.width(), image.height(),
                                  params, stats, &*refined, trace);
    if (stats != nullptr) stats->wavelet_seconds = wavelet_seconds;
    return regions;
  }
  double wavelet_seconds = wavelet_timer.ElapsedSeconds();
  auto regions = ExtractRegionsFromWindows(*set, image.width(),
                                           image.height(), params, stats,
                                           nullptr, trace);
  if (stats != nullptr) stats->wavelet_seconds = wavelet_seconds;
  return regions;
}

}  // namespace walrus
