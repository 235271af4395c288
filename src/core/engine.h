// The immutable translation engine — the Translator of TRIPS (§2), which
// "constructs a sequence of mobility semantics for each individual
// positioning sequence" by running the three-layer framework (Fig. 3):
// Cleaning -> Annotation -> Complementing, "without manual interventions".
// The engine holds everything a translation needs that does NOT change per
// request: the DSM, its routing topology, the trained event identification
// model, the baseline mobility knowledge and the layer instances built over
// them. An Engine is assembled once through Engine::Builder and then never
// mutated, so a single instance can be shared (via shared_ptr<const Engine>)
// by any number of concurrent sessions and threads. Per-request state
// (batch-learned mobility knowledge, streaming buffers) lives in the sessions
// handed out by core::Service.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "annotation/annotator.h"
#include "annotation/event_classifier.h"
#include "cleaning/cleaner.h"
#include "complement/complementor.h"
#include "complement/knowledge.h"
#include "config/event_editor.h"
#include "core/semantics.h"
#include "dsm/dsm.h"
#include "dsm/routing.h"
#include "obs/metrics.h"
#include "positioning/record_block.h"
#include "util/thread_pool.h"

namespace trips::core {

/// Cleaner defaults for the full pipeline: light smoothing suppresses the
/// per-fix positioning jitter that would otherwise inflate the motion
/// features the Annotation layer classifies on.
inline cleaning::CleanerOptions DefaultPipelineCleanerOptions() {
  cleaning::CleanerOptions opt;
  opt.smoothing_window = 3;
  return opt;
}

/// End-to-end translation options (one knob struct per layer).
struct TranslatorOptions {
  cleaning::CleanerOptions cleaner = DefaultPipelineCleanerOptions();
  annotation::AnnotatorOptions annotator;
  annotation::EventClassifierOptions classifier;
  complement::ComplementorOptions complementor;
  /// Route planner knobs (memoization, contraction, vertical cost) for the
  /// planner Engine::Builder::Build() builds; the cleaning layer's gap
  /// interpolation and every Engine session route through it.
  dsm::RoutePlannerOptions routing;
  /// Layer switches (ablations / baselines).
  bool enable_cleaning = true;
  bool enable_complementing = true;
  /// Laplace smoothing used when building mobility knowledge.
  double knowledge_smoothing = 0.5;
};

/// Per-stage observability hooks of the translation pipeline. Every pointer
/// may be null (that stage is simply not recorded); sessions resolve one of
/// these from their Service's obs::MetricsRegistry and pass it into the
/// stateless layer primitives below. Recording never changes translation
/// output — results are byte-identical metrics on or off.
struct TranslationStageMetrics {
  obs::Histogram* clean_ns = nullptr;       ///< cleaning layer, per sequence
  obs::Histogram* split_ns = nullptr;       ///< SplitSequence inside annotation
  obs::Histogram* annotate_ns = nullptr;    ///< annotation layer (includes split)
  obs::Histogram* complement_ns = nullptr;  ///< complementing layer, per sequence
  obs::Counter* sequences = nullptr;        ///< sequences clean+annotated
  obs::Counter* records = nullptr;          ///< raw records clean+annotated
  /// Per-pass breakdown inside the cleaning layer (clean.scan_ns etc.),
  /// forwarded into RawDataCleaner::CleanBlock; clean_ns is their sum plus
  /// the block sort.
  cleaning::CleaningStageMetrics cleaning;
};

/// Everything the Translator produced for one device — the material the
/// Viewer traces ("the input, output and intermediate data involved in the
/// translation", §1).
struct TranslationResult {
  positioning::PositioningSequence raw;
  positioning::PositioningSequence cleaned;
  /// Annotation-layer output (before complementing).
  MobilitySemanticsSequence original_semantics;
  /// Final output (after complementing).
  MobilitySemanticsSequence semantics;
  cleaning::CleaningReport cleaning_report;
  complement::ComplementReport complement_report;
  /// When the record batch was traced (stream ingest), the ingest stamp rides
  /// along so the session can report true ingest-to-emit latency.
  obs::TraceContext trace;
};

/// One coherent view of the route planner's memoization cache plus the static
/// graph sizes — Engine::routing_cache_stats() is the single observability
/// surface for routing; the raw RoutePlanner accessors remain as shims
/// underneath it.
struct RoutingCacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;
  size_t size = 0;      ///< memoized trees currently held
  size_t nodes = 0;     ///< static routing graph nodes
  size_t portals = 0;   ///< portal nodes surviving contraction
};

/// Immutable, shareable translation model. Every const method is thread-safe.
class Engine {
 public:
  /// Assembles an Engine: DSM + options + optional training corpus.
  ///
  ///     auto engine = core::Engine::Builder()
  ///                       .SetDsm(std::move(mall))
  ///                       .SetTrainingData(editor.training_data())
  ///                       .Build();
  class Builder {
   public:
    /// Takes ownership of `dsm`. Topology is computed at Build() if missing.
    Builder& SetDsm(dsm::Dsm dsm);
    /// Co-owns `dsm` (no copy; the engine keeps it alive). Must already have
    /// topology computed.
    Builder& ShareDsm(std::shared_ptr<const dsm::Dsm> dsm);
    /// Borrows `dsm` (caller keeps ownership; must outlive the Engine and
    /// already have topology computed).
    Builder& BorrowDsm(const dsm::Dsm* dsm);
    /// Loads the DSM from a JSON file at Build() time.
    Builder& LoadDsmFile(std::string path);
    /// Translation options for all three layers.
    Builder& SetOptions(TranslatorOptions options);
    /// Event Editor segments to train the event identification model with.
    /// Training is best-effort: with segments for fewer than two patterns the
    /// rule-based identifier stays in place and Engine::training_status()
    /// reports kFailedPrecondition.
    Builder& SetTrainingData(std::vector<config::LabeledSegment> training_data);

    /// Builds the engine: resolves the DSM, computes topology when owned and
    /// missing (a shared or borrowed DSM without topology fails with
    /// kFailedPrecondition), builds the route planner and the layers, and
    /// trains the event model.
    Result<std::shared_ptr<const Engine>> Build();

   private:
    std::unique_ptr<dsm::Dsm> owned_dsm_;
    std::shared_ptr<const dsm::Dsm> shared_dsm_;
    const dsm::Dsm* borrowed_dsm_ = nullptr;
    std::string dsm_path_;
    TranslatorOptions options_;
    std::vector<config::LabeledSegment> training_data_;
  };

  // The layer instances hold pointers into this object, so an engine is
  // pinned to its address once constructed.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ---- model accessors ------------------------------------------------------

  const dsm::Dsm& dsm() const { return *dsm_; }
  const TranslatorOptions& options() const { return options_; }
  const dsm::RoutePlanner& planner() const { return planner_; }
  /// The event classifier (untrained => rule-based identification).
  const annotation::EventClassifier& classifier() const { return classifier_; }
  /// Baseline mobility knowledge (uniform prior over the DSM adjacency).
  const complement::MobilityKnowledge& knowledge() const { return knowledge_; }
  /// Outcome of event-model training at Build() time: OK when training was
  /// not requested or succeeded; kFailedPrecondition when the corpus covered
  /// fewer than two patterns (the rule-based identifier is used then).
  const Status& training_status() const { return training_status_; }

  // ---- observability --------------------------------------------------------

  /// Snapshot of the route planner's cache counters and graph sizes. Each
  /// counter is read atomically but the struct as a whole is not one atomic
  /// snapshot (concurrent queries may land between reads) — fine for
  /// monitoring, and exact at quiescence.
  RoutingCacheStats routing_cache_stats() const {
    RoutingCacheStats stats;
    stats.hits = planner_.cache_hits();
    stats.misses = planner_.cache_misses();
    stats.evictions = planner_.cache_evictions();
    stats.size = planner_.cache_size();
    stats.nodes = planner_.NodeCount();
    stats.portals = planner_.PortalCount();
    return stats;
  }

  /// Point-query counts of the DSM's spatial index (zeroes when the index is
  /// not built).
  dsm::SpatialProbeStats spatial_probe_stats() const {
    return dsm().spatial_index().probes();
  }

  /// Drops the memoized routing trees and zeroes the cache counters. The
  /// engine stays logically immutable: the cache is pure memoization, so
  /// translation results are unaffected.
  void ClearRoutingCache() const { planner_.ClearCache(); }

  /// Zeroes the spatial probe counters (benchmark phases, tests).
  void ResetSpatialProbes() const { dsm().spatial_index().ResetProbes(); }

  // ---- stateless translation primitives (all thread-safe) -------------------

  /// Cleaning + Annotation layers for one sequence: sorts and cleans `block`
  /// in place and annotates the cleaned columns directly — the stages never
  /// rematerialize AoS records between each other (the result's raw/cleaned
  /// sequences are materialized once, at the stage boundaries the
  /// TranslationResult contract requires). On return the block holds the
  /// cleaned columns. `pool` (may be null) parallelizes cleaning passes 2/4
  /// inside long sequences; output is identical for every worker count and
  /// with `stages` (may be null) recording or not.
  TranslationResult CleanAndAnnotate(
      positioning::RecordBlock* block, util::ThreadPool* pool = nullptr,
      const TranslationStageMetrics* stages = nullptr) const;
  /// Builds mobility knowledge by aggregating the annotation-layer output of
  /// `results` ("referring to other generated mobility semantics sequences",
  /// §2; integer-count aggregation: independent of result order).
  complement::MobilityKnowledge BuildKnowledge(
      const std::vector<TranslationResult>& results) const;
  /// Complementing layer for one result: fills result->semantics from
  /// result->original_semantics using `knowledge` (or copies it verbatim when
  /// complementing is disabled in the options). `stages` (may be null)
  /// receives the complement-stage timing.
  void Complement(TranslationResult* result,
                  const complement::MobilityKnowledge& knowledge,
                  const TranslationStageMetrics* stages = nullptr) const;
  /// Full three-layer translation of one sequence with the baseline knowledge.
  TranslationResult Translate(const positioning::PositioningSequence& seq) const;
  /// Columnar full translation with the baseline knowledge: consumes `block`
  /// in place (the streaming path — buffers translate without ever
  /// materializing an input AoS copy).
  TranslationResult TranslateBlock(positioning::RecordBlock* block,
                                   util::ThreadPool* pool = nullptr,
                                   const TranslationStageMetrics* stages = nullptr) const;

 private:
  Engine(std::shared_ptr<const dsm::Dsm> dsm_holder, const dsm::Dsm* dsm,
         const TranslatorOptions& options, dsm::RoutePlanner planner);

  std::shared_ptr<const dsm::Dsm> dsm_holder_;  // set when the engine (co)owns it
  const dsm::Dsm* dsm_;                         // topology computed
  TranslatorOptions options_;
  dsm::RoutePlanner planner_;
  annotation::EventClassifier classifier_;      // trained in place by Build
  complement::MobilityKnowledge knowledge_;
  // Configuration-only and const-thread-safe: built once over the members
  // above and shared by every translation.
  cleaning::RawDataCleaner cleaner_;
  annotation::Annotator annotator_;
  Status training_status_;
};

}  // namespace trips::core
