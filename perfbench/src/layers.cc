#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "annotation/annotator.h"
#include "annotation/splitter.h"
#include "cleaning/cleaner.h"
#include "complement/complementor.h"
#include "complement/knowledge.h"
#include "measure.h"
#include "obs/metrics.h"
#include "positioning/error_model.h"
#include "positioning/record_block.h"
#include "store/trip_store.h"

namespace perfbench {

using namespace trips;

void RowCosts::Add(const RowCosts& o) {
  sort += o.sort;
  scan += o.scan;
  interpolate += o.interpolate;
  smooth += o.smooth;
  snap += o.snap;
  split += o.split;
  annotate += o.annotate;
  complement += o.complement;
  knowledge += o.knowledge;
  materialize += o.materialize;
  append += o.append;
}

namespace {

// The layers of one venue, built from its engine exactly as the engine's
// translator builds them.
struct VenueLayers {
  const core::Engine* engine;
  cleaning::RawDataCleaner cleaner;
  annotation::Annotator annotator;
  std::unique_ptr<store::TripStore> store;

  explicit VenueLayers(const core::Engine* e)
      : engine(e),
        cleaner(&e->dsm(), &e->planner(), e->options().cleaner),
        annotator(&e->dsm(), &e->classifier(), e->options().annotator),
        store(store::TripStore::Open({}).ValueOrDie()) {}
};

// Per-call-kind histograms the cleaner's passes record into.
struct PassHistograms {
  obs::MetricsRegistry registry;
  std::array<cleaning::CleaningStageMetrics, kCallKinds> metrics{};
  PassHistograms() {
    for (int k = 0; k < kCallKinds; ++k) {
      const std::string p = std::to_string(k) + ".";
      metrics[k] = {registry.histogram(p + "scan_ns"), registry.histogram(p + "interpolate_ns"),
                    registry.histogram(p + "smooth_ns"), registry.histogram(p + "snap_ns")};
    }
  }
};

double Sum(obs::Histogram* h) { return static_cast<double>(h->Summarize().sum); }

// Layers 1 and 2 of one buffer; what TranslateBlockWith does before
// complementing.
struct Annotated {
  positioning::PositioningSequence cleaned;
  core::MobilitySemanticsSequence original;
};

Annotated CleanAndAnnotate(VenueLayers& layers, const std::string& device,
                           const positioning::RawRecord* records, size_t n,
                           const cleaning::CleaningStageMetrics* pass_metrics,
                           positioning::RecordBlock* buffer, RowCosts* cost, double* clean_ns,
                           LayerPassResult* out) {
  positioning::RecordBlock& block = *buffer;
  block.Clear();
  block.device_id = device;
  block.Reserve(n);
  for (size_t i = 0; i < n; ++i) block.Append(records[i]);
  const core::TranslatorOptions& options = layers.engine->options();
  Annotated result;

  uint64_t t0 = obs::NowNanos();
  block.SortByTime();
  uint64_t t1 = obs::NowNanos();
  positioning::PositioningSequence raw = block.ToSequence();
  uint64_t t2 = obs::NowNanos();
  cleaning::CleaningReport report;
  if (options.enable_cleaning) {
    layers.cleaner.CleanBlock(&block, nullptr, &report, nullptr, pass_metrics);
  }
  uint64_t t3 = obs::NowNanos();
  result.cleaned = options.enable_cleaning ? block.ToSequence() : raw;
  uint64_t t4 = obs::NowNanos();
  annotation::AnnotateTimings timings;
  result.original = layers.annotator.Annotate(block, &timings);
  uint64_t t5 = obs::NowNanos();

  cost->sort += static_cast<double>(t1 - t0);
  cost->materialize += static_cast<double>((t2 - t1) + (t4 - t3));
  *clean_ns += static_cast<double>(t3 - t2);
  cost->split += static_cast<double>(timings.split_ns);
  cost->annotate += static_cast<double>(t5 - t4) - static_cast<double>(timings.split_ns);
  out->records += n;
  out->sequences += 1;
  out->snapped += report.snapped;
  out->interpolated += report.interpolated;
  out->snippets += annotation::SplitSequence(block, options.annotator.splitter).size();
  return result;
}

// Layer 3 plus the store append; compares with what the replay delivered.
void ComplementAndStore(VenueLayers& layers, const complement::MobilityKnowledge& knowledge,
                        const core::MobilitySemanticsSequence& original,
                        const Delivery& delivered, RowCosts* cost, LayerPassResult* out,
                        core::MobilitySemanticsSequence* final_out) {
  const core::TranslatorOptions& options = layers.engine->options();
  complement::ComplementReport report;
  uint64_t t0 = obs::NowNanos();
  if (options.enable_complementing) {
    complement::Complementor complementor(&layers.engine->dsm(), &knowledge,
                                          options.complementor);
    *final_out = complementor.Complement(original, &report);
  } else {
    *final_out = original;
  }
  uint64_t t1 = obs::NowNanos();
  core::MobilitySemanticsSequence copy = *final_out;
  uint64_t t2 = obs::NowNanos();
  auto appended = layers.store->Append(std::move(copy));
  uint64_t t3 = obs::NowNanos();
  cost->complement += static_cast<double>(t1 - t0);
  cost->append += static_cast<double>(t3 - t2);
  out->gaps_found += report.gaps_found;
  out->gaps_filled += report.gaps_filled;
  ++out->compared;
  bool same = appended.ok() && final_out->device_id == delivered.semantics.device_id &&
              final_out->semantics == delivered.semantics.semantics;
  if (!same) {
    ++out->mismatches;
    if (out->messages.size() < 5) {
      out->messages.push_back("layer pass differs from delivered semantics for " +
                              delivered.semantics.device_id);
    }
  }
}

void Concat(core::MobilitySemanticsSequence* into, const core::MobilitySemanticsSequence& part) {
  into->device_id = part.device_id;
  into->semantics.insert(into->semantics.end(), part.semantics.begin(), part.semantics.end());
}

// Fig. 3 qualities of every session against its ground truth.
void ScoreQuality(const WorkloadInput& input,
                  const std::vector<std::vector<positioning::RawRecord>>& cleaned,
                  std::vector<core::MobilitySemanticsSequence>& original,
                  std::vector<core::MobilitySemanticsSequence>& final_semantics,
                  DurationMs min_gap, LayerPassResult* out) {
  double sq = 0, matched = 0, floor_errors = 0, event = 0, evaluated = 0;
  uint64_t gap_hits = 0;
  for (size_t s = 0; s < input.sessions.size(); ++s) {
    const Session& session = input.sessions[s];
    positioning::PositioningSequence truth, observed;
    truth.records = session.truth;
    observed.records = cleaned[s];
    positioning::ErrorStats stats = positioning::CompareToTruth(truth, observed);
    sq += stats.planar_rmse * stats.planar_rmse * static_cast<double>(stats.matched);
    matched += static_cast<double>(stats.matched);
    floor_errors += static_cast<double>(stats.floor_errors);

    original[s].SortByTime();
    core::SemanticsAgreement a = core::CompareSemantics(session.semantics, original[s]);
    event += a.event_match * static_cast<double>(a.evaluated);
    evaluated += static_cast<double>(a.evaluated);

    // Coverage gaps: holes in the reported records longer than the
    // complementor's minimum gap, sampled once per second.
    final_semantics[s].SortByTime();
    for (size_t i = 1; i < session.raw.size(); ++i) {
      TimestampMs a0 = session.raw[i - 1].timestamp, a1 = session.raw[i].timestamp;
      if (a1 - a0 <= min_gap) continue;
      for (TimestampMs t = a0 + kMillisPerSecond; t < a1; t += kMillisPerSecond) {
        const core::MobilitySemantic* want = session.semantics.At(t);
        if (want == nullptr) continue;
        ++out->gap_samples;
        const core::MobilitySemantic* got = final_semantics[s].At(t);
        if (got != nullptr && got->region == want->region) ++gap_hits;
      }
    }
  }
  out->rmse_m = matched > 0 ? std::sqrt(sq / matched) : 0;
  out->floor_error_rate = matched > 0 ? floor_errors / matched : 0;
  out->annotation_event_match = evaluated > 0 ? event / evaluated : 0;
  out->gap_region_match =
      out->gap_samples > 0 ? static_cast<double>(gap_hits) / out->gap_samples : 0;
}

}  // namespace

LayerPassResult RunLayerPass(const WorkloadInput& input,
                             const std::vector<const core::Engine*>& engines,
                             const std::vector<Delivery>& deliveries) {
  LayerPassResult out;
  PassHistograms passes;
  std::vector<std::unique_ptr<VenueLayers>> layers;
  for (const core::Engine* e : engines) layers.push_back(std::make_unique<VenueLayers>(e));
  const size_t n = input.sessions.size();
  std::vector<std::vector<positioning::RawRecord>> cleaned(n);
  std::vector<core::MobilitySemanticsSequence> original(n), final_semantics(n);
  std::vector<size_t> offset(n, 0);
  positioning::RecordBlock block;  // one buffer at a time, reused

  auto keep = [&](uint32_t s, Annotated& a, core::MobilitySemanticsSequence& fin) {
    cleaned[s].insert(cleaned[s].end(), a.cleaned.records.begin(), a.cleaned.records.end());
    Concat(&original[s], a.original);
    Concat(&final_semantics[s], fin);
  };

  const uint64_t start = obs::NowNanos();
  if (input.target != Target::kBatch) {
    // Each delivered result was one buffer: the session's next `records`
    // records in ingest order (cap flushes cut a session into several).
    for (const Delivery& d : deliveries) {
      if (d.session >= n) {
        ++out.mismatches;
        out.messages.push_back("delivered result of an unknown device");
        continue;
      }
      const Session& session = input.sessions[d.session];
      VenueLayers& venue = *layers[session.venue];
      RowCosts& cost = out.by_call[d.call];
      if (offset[d.session] + d.records > session.raw.size()) {
        ++out.mismatches;
        out.messages.push_back("delivered more records than offered for " + session.device);
        continue;
      }
      Annotated a = CleanAndAnnotate(venue, session.device, &session.raw[offset[d.session]],
                                     d.records, &passes.metrics[d.call], &block, &cost,
                                     &out.clean_ns, &out);
      offset[d.session] += d.records;
      core::MobilitySemanticsSequence fin;
      ComplementAndStore(venue, venue.engine->knowledge(), a.original, d, &cost, &out, &fin);
      keep(d.session, a, fin);
    }
  } else {
    // Batch: per chunk, layers 1+2 on every sequence, knowledge learned from
    // the chunk (kept when it saw transitions, as BatchSession does), then
    // layer 3 against it.
    VenueLayers& venue = *layers[0];
    RowCosts& cost = out.by_call[kCallSubmit];
    std::vector<const Delivery*> by_session(n, nullptr);
    for (const Delivery& d : deliveries) {
      if (d.session < n) by_session[d.session] = &d;
    }
    complement::MobilityKnowledge knowledge = venue.engine->knowledge();
    for (const std::vector<uint32_t>& chunk : input.chunks) {
      std::vector<Annotated> annotated;
      for (uint32_t s : chunk) {
        const Session& session = input.sessions[s];
        annotated.push_back(CleanAndAnnotate(venue, session.device, session.raw.data(),
                                             session.raw.size(),
                                             &passes.metrics[kCallSubmit], &block, &cost,
                                             &out.clean_ns, &out));
      }
      uint64_t k0 = obs::NowNanos();
      complement::KnowledgeBuilder builder(&venue.engine->dsm());
      for (const Annotated& a : annotated) builder.AddSequence(a.original);
      complement::MobilityKnowledge learned =
          builder.Build(venue.engine->options().knowledge_smoothing);
      if (learned.observed_transitions > 0) knowledge = std::move(learned);
      cost.knowledge += static_cast<double>(obs::NowNanos() - k0);
      for (size_t i = 0; i < chunk.size(); ++i) {
        const Delivery* d = by_session[chunk[i]];
        if (d == nullptr) {
          ++out.mismatches;
          out.messages.push_back("no delivered result for " + input.sessions[chunk[i]].device);
          continue;
        }
        core::MobilitySemanticsSequence fin;
        ComplementAndStore(venue, knowledge, annotated[i].original, *d, &cost, &out, &fin);
        keep(chunk[i], annotated[i], fin);
      }
    }
  }
  out.wall_ns = static_cast<double>(obs::NowNanos() - start);

  // Per-pass cleaning time; CleanBlock's bookkeeping outside its four
  // passes is booked to the scan row.
  std::array<double, kCallKinds> passes_ns{};
  double passes_total = 0;
  for (int k = 0; k < kCallKinds; ++k) {
    const cleaning::CleaningStageMetrics& m = passes.metrics[k];
    RowCosts& cost = out.by_call[k];
    cost.scan += Sum(m.scan_ns);
    cost.interpolate += Sum(m.interpolate_ns);
    cost.smooth += Sum(m.smooth_ns);
    cost.snap += Sum(m.snap_ns);
    passes_ns[k] = cost.scan + cost.interpolate + cost.smooth + cost.snap;
    passes_total += passes_ns[k];
  }
  const double bookkeeping = out.clean_ns - passes_total;
  for (int k = 0; k < kCallKinds; ++k) {
    if (passes_total > 0) out.by_call[k].scan += bookkeeping * passes_ns[k] / passes_total;
  }
  for (const RowCosts& c : out.by_call) out.total.Add(c);

  for (size_t s = 0; s < n; ++s) {
    if (offset[s] != 0 && offset[s] != input.sessions[s].raw.size()) {
      ++out.mismatches;
      out.messages.push_back("layer pass did not consume every record of " +
                             input.sessions[s].device);
    }
  }
  ScoreQuality(input, cleaned, original, final_semantics,
               engines.front()->options().complementor.min_gap, &out);
  return out;
}

namespace {

enum class SpanRole { kOther, kIngest, kInline, kPoll, kSubmit, kPersist, kAppendResponse };

SpanRole RoleOf(const Span& s) {
  auto is = [&](const char* name) { return std::strcmp(s.name, name) == 0; };
  if (is(spans::kClusterIngest)) return s.released > 0 ? SpanRole::kInline : SpanRole::kIngest;
  if (is(spans::kClusterPoll) || is(spans::kClusterFlushAll)) return SpanRole::kPoll;
  if (is(spans::kSubmit)) return SpanRole::kSubmit;
  if (is(spans::kClusterPersistAll) || is(spans::kStoreFlush)) return SpanRole::kPersist;
  if (is(spans::kStoreAppendResponse)) return SpanRole::kAppendResponse;
  return SpanRole::kOther;
}

}  // namespace

std::vector<LedgerRow> BuildLedger(const LedgerInput& in) {
  double ingest = 0, persist = 0, sink_append = 0, pool_wait = 0;
  RowCosts translation;
  // Release-call groups: 0 inline cap flushes, 1 polls + drains, 2 submits.
  double wall[3] = {0, 0, 0}, waited[3] = {0, 0, 0}, sinks[3] = {0, 0, 0};
  double self[3] = {0, 0, 0};
  for (const Span& s : *in.spans) {
    SpanRole role = RoleOf(s);
    double d = static_cast<double>(s.Duration());
    auto wait_of = [&] {
      auto it = in.pool_wait->find(s.id);
      return it == in.pool_wait->end() ? 0.0 : it->second;
    };
    switch (role) {
      case SpanRole::kIngest: ingest += d; break;
      case SpanRole::kInline: wall[0] += d; waited[0] += wait_of(); break;
      case SpanRole::kPoll: wall[1] += d; waited[1] += wait_of(); break;
      case SpanRole::kSubmit: wall[2] += d; waited[2] += wait_of(); break;
      case SpanRole::kPersist: persist += d; break;
      case SpanRole::kAppendResponse: sink_append += d; break;
      case SpanRole::kOther: break;
    }
  }
  auto group_of = [](uint8_t call) { return call == kCallIngest ? 0 : call == kCallSubmit ? 2 : 1; };
  for (const Delivery& d : *in.deliveries) sinks[group_of(d.call)] += static_cast<double>(d.sink_ns);
  // The Cluster appends a stream result inside the releasing call, before
  // the sink sees it; a batch response is appended by AppendResponse, a span
  // of its own.
  for (int k = 0; k < kCallKinds; ++k) {
    if (k != kCallSubmit) sinks[group_of(static_cast<uint8_t>(k))] += in.pass->by_call[k].append;
  }
  for (int g = 0; g < 3; ++g) {
    RowCosts work;
    for (int k = 0; k < kCallKinds; ++k) {
      if (group_of(static_cast<uint8_t>(k)) == g) work.Add(in.pass->by_call[k]);
    }
    double demand = work.Translation() + sinks[g] + waited[g];
    double f = demand > 0 ? std::min(1.0, wall[g] / demand) : 0;
    RowCosts scaled;
    scaled.sort = work.sort * f;
    scaled.scan = work.scan * f;
    scaled.interpolate = work.interpolate * f;
    scaled.smooth = work.smooth * f;
    scaled.snap = work.snap * f;
    scaled.split = work.split * f;
    scaled.annotate = work.annotate * f;
    scaled.complement = work.complement * f;
    scaled.knowledge = work.knowledge * f;
    scaled.materialize = work.materialize * f;
    translation.Add(scaled);
    sink_append += sinks[g] * f;
    pool_wait += waited[g] * f;
    self[g] = std::max(0.0, wall[g] - demand * f);  // f = wall / demand leaves rounding dust
  }
  std::vector<LedgerRow> rows = {
      {"ingest", ingest},
      {"inline_flush", self[0]},
      {"poll_flush", self[1]},
      {"submit", self[2]},
      {"sort", translation.sort},
      {"clean_scan", translation.scan},
      {"clean_interpolate", translation.interpolate},
      {"clean_smooth", translation.smooth},
      {"clean_snap", translation.snap},
      {"split", translation.split},
      {"annotate", translation.annotate},
      {"complement", translation.complement + translation.knowledge},
      {"materialize", translation.materialize},
      {"sink_append", sink_append},
      {"persist", persist},
      {"pool_wait", pool_wait},
  };
  double attributed = 0;
  for (const LedgerRow& r : rows) attributed += r.ns;
  rows.push_back({"unattributed", in.wall_ns - attributed});
  return rows;
}

}  // namespace perfbench
