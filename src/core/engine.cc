#include "core/engine.h"

#include "dsm/dsm_json.h"

namespace trips::core {

Engine::Builder& Engine::Builder::SetDsm(dsm::Dsm dsm) {
  owned_dsm_ = std::make_unique<dsm::Dsm>(std::move(dsm));
  shared_dsm_.reset();
  borrowed_dsm_ = nullptr;
  dsm_path_.clear();
  return *this;
}

Engine::Builder& Engine::Builder::ShareDsm(std::shared_ptr<const dsm::Dsm> dsm) {
  shared_dsm_ = std::move(dsm);
  owned_dsm_.reset();
  borrowed_dsm_ = nullptr;
  dsm_path_.clear();
  return *this;
}

Engine::Builder& Engine::Builder::BorrowDsm(const dsm::Dsm* dsm) {
  borrowed_dsm_ = dsm;
  owned_dsm_.reset();
  shared_dsm_.reset();
  dsm_path_.clear();
  return *this;
}

Engine::Builder& Engine::Builder::LoadDsmFile(std::string path) {
  dsm_path_ = std::move(path);
  owned_dsm_.reset();
  shared_dsm_.reset();
  borrowed_dsm_ = nullptr;
  return *this;
}

Engine::Builder& Engine::Builder::SetOptions(TranslatorOptions options) {
  options_ = options;
  return *this;
}

Engine::Builder& Engine::Builder::SetTrainingData(
    std::vector<config::LabeledSegment> training_data) {
  training_data_ = std::move(training_data);
  return *this;
}

Result<std::shared_ptr<const Engine>> Engine::Builder::Build() {
  if (!dsm_path_.empty()) {
    TRIPS_ASSIGN_OR_RETURN(dsm::Dsm loaded, dsm::LoadFromFile(dsm_path_));
    owned_dsm_ = std::make_unique<dsm::Dsm>(std::move(loaded));
  }
  if (owned_dsm_ == nullptr && shared_dsm_ == nullptr && borrowed_dsm_ == nullptr) {
    return Status::InvalidArgument("Engine::Builder: no DSM configured");
  }
  if (owned_dsm_ != nullptr && !owned_dsm_->topology_computed()) {
    TRIPS_RETURN_NOT_OK(owned_dsm_->ComputeTopology());
  }

  std::shared_ptr<const dsm::Dsm> holder;  // null for raw borrows
  if (owned_dsm_ != nullptr) {
    holder = std::shared_ptr<const dsm::Dsm>(owned_dsm_.release());
  } else {
    holder = std::move(shared_dsm_);
  }
  const dsm::Dsm* dsm = holder != nullptr ? holder.get() : borrowed_dsm_;
  if (!dsm->topology_computed()) {
    return Status::FailedPrecondition("DSM topology not computed");
  }
  TRIPS_ASSIGN_OR_RETURN(dsm::RoutePlanner planner,
                         dsm::RoutePlanner::Build(dsm, options_.routing));
  // Engine's constructor is private; construct via new under a shared_ptr.
  std::shared_ptr<Engine> engine(
      new Engine(std::move(holder), dsm, options_, std::move(planner)));
  if (!training_data_.empty()) {
    Status trained = engine->classifier_.Train(training_data_);
    if (!trained.ok() && trained.code() != StatusCode::kFailedPrecondition) {
      return trained;
    }
    engine->training_status_ = trained;
  }
  return std::shared_ptr<const Engine>(std::move(engine));
}

Engine::Engine(std::shared_ptr<const dsm::Dsm> dsm_holder, const dsm::Dsm* dsm,
               const TranslatorOptions& options, dsm::RoutePlanner planner)
    : dsm_holder_(std::move(dsm_holder)),
      dsm_(dsm),
      options_(options),
      planner_(std::move(planner)),
      classifier_(options_.classifier),
      knowledge_(complement::MobilityKnowledge::Uniform(*dsm_)),
      cleaner_(dsm_, &planner_, options_.cleaner),
      annotator_(dsm_, &classifier_, options_.annotator) {}

TranslationResult Engine::CleanAndAnnotate(
    positioning::RecordBlock* block, util::ThreadPool* pool,
    const TranslationStageMetrics* stages) const {
  TranslationResult result;
  block->SortByTime();
  block->MaterializeTo(&result.raw);
  if (stages != nullptr) {
    if (stages->sequences != nullptr) stages->sequences->Add(1);
    if (stages->records != nullptr) stages->records->Add(result.raw.records.size());
  }

  if (options_.enable_cleaning) {
    obs::StageTimer clean_timer(stages != nullptr ? stages->clean_ns : nullptr);
    cleaner_.CleanBlock(block, nullptr, &result.cleaning_report, pool,
                        stages != nullptr ? &stages->cleaning : nullptr);
    block->MaterializeTo(&result.cleaned);
  } else {
    result.cleaned = result.raw;
    result.cleaning_report.total_records = result.raw.records.size();
  }

  // The annotation layer consumes the cleaned columns directly. The split
  // phase is timed by the annotator itself (annotate_ns includes split_ns).
  annotation::AnnotateTimings timings;
  annotation::AnnotateTimings* timings_ptr =
      (stages != nullptr && stages->split_ns != nullptr &&
       stages->split_ns->recording())
          ? &timings
          : nullptr;
  {
    obs::StageTimer annotate_timer(stages != nullptr ? stages->annotate_ns
                                                     : nullptr);
    result.original_semantics = annotator_.Annotate(*block, timings_ptr);
  }
  if (timings_ptr != nullptr) stages->split_ns->Record(timings.split_ns);
  return result;
}

complement::MobilityKnowledge Engine::BuildKnowledge(
    const std::vector<TranslationResult>& results) const {
  complement::KnowledgeBuilder builder(dsm_);
  for (const TranslationResult& r : results) {
    builder.AddSequence(r.original_semantics);
  }
  return builder.Build(options_.knowledge_smoothing);
}

void Engine::Complement(TranslationResult* result,
                        const complement::MobilityKnowledge& knowledge,
                        const TranslationStageMetrics* stages) const {
  obs::StageTimer complement_timer(stages != nullptr ? stages->complement_ns
                                                     : nullptr);
  if (options_.enable_complementing) {
    complement::Complementor complementor(dsm_, &knowledge, options_.complementor);
    result->semantics =
        complementor.Complement(result->original_semantics, &result->complement_report);
  } else {
    result->semantics = result->original_semantics;
  }
}

TranslationResult Engine::Translate(const positioning::PositioningSequence& seq) const {
  // Per-thread block, reused across sequences: each translating thread
  // reaches a steady state where the AoS->SoA conversion allocates nothing.
  static thread_local positioning::RecordBlock block;
  block.AssignFrom(seq);
  return TranslateBlock(&block);
}

TranslationResult Engine::TranslateBlock(positioning::RecordBlock* block,
                                         util::ThreadPool* pool,
                                         const TranslationStageMetrics* stages) const {
  TranslationResult result = CleanAndAnnotate(block, pool, stages);
  Complement(&result, knowledge_, stages);
  return result;
}

}  // namespace trips::core
