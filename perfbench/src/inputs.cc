#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "dsm/routing.h"
#include "dsm/sample_spaces.h"
#include "loadgen/scenario.h"
#include "mobility/generator.h"
#include "positioning/error_model.h"
#include "util/rng.h"

namespace perfbench {

using namespace trips;

namespace {

// 2026-03-02 00:00:00 UTC: every workload's history lies inside this day, so
// the stores' day partitions hold one bucket each.
constexpr TimestampMs kBaseDay = 20514LL * kMillisPerDay;
const DurationMs kPollInterval = loadgen::ScenarioConfig{}.poll_interval;
constexpr int kTrainingDevices = 110;
constexpr uint64_t kTrainingSeed = 2018;

double Exponential(Rng* rng, double mean) {
  return -mean * std::log(1.0 - rng->Uniform(0.0, 1.0));
}

void Shuffle(std::vector<Query>* queries, Rng* rng) {
  for (size_t i = queries->size(); i > 1; --i) {
    std::swap((*queries)[i - 1], (*queries)[static_cast<size_t>(rng->UniformInt(0, i - 1))]);
  }
}

// A venue under construction: its DSM, the planner its generator routes on
// (input generation only — engines build their own), and its generator knobs.
struct VenueBuild {
  std::string id;
  std::shared_ptr<dsm::Dsm> dsm;
  std::unique_ptr<dsm::RoutePlanner> planner;
  mobility::GeneratorOptions mobility;
  int floors = 1;
};

Result<VenueBuild> NewVenue(std::string id, Result<dsm::Dsm> built, int floors,
                            std::vector<std::string> targets,
                            std::vector<std::string> wander) {
  if (!built.ok()) return built.status();
  VenueBuild v;
  v.id = std::move(id);
  v.dsm = std::make_shared<dsm::Dsm>(std::move(built).ValueOrDie());
  auto planner = dsm::RoutePlanner::Build(v.dsm.get());
  if (!planner.ok()) return planner.status();
  v.planner = std::make_unique<dsm::RoutePlanner>(std::move(planner).ValueOrDie());
  v.floors = floors;
  v.mobility.target_categories = std::move(targets);
  v.mobility.wander_categories = std::move(wander);
  return v;
}

// Event Editor corpus labelled from generator truth: every ground-truth
// triplet of kTrainingDevices full-length visits becomes one designated
// segment of its event pattern (the paper's learning-based event
// identification). The corpus is part of the venue's configuration, like its
// floor plan: it comes from a fixed per-venue seed, not the workload seed.
// Event-match quality moves by up to 0.3 between corpus draws, so a
// seed-dependent corpus would bury every other change in that spread.
Result<std::vector<config::LabeledSegment>> TrainingCorpus(const VenueBuild& v) {
  uint64_t venue_seed = kTrainingSeed;
  for (char c : v.id) venue_seed = (venue_seed ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  Rng rng(venue_seed);
  mobility::GeneratorOptions options;  // full-length visits: many segments each
  options.target_categories = v.mobility.target_categories;
  options.wander_categories = v.mobility.wander_categories;
  mobility::MobilityGenerator generator(v.dsm.get(), v.planner.get(), options);
  config::EventEditor editor;
  for (int d = 0; d < kTrainingDevices; ++d) {
    auto dev = generator.GenerateDevice("train-" + std::to_string(d), kBaseDay, &rng);
    if (!dev.ok()) return dev.status();
    for (const core::MobilitySemantic& s : dev->semantics.semantics) {
      if (dev->truth.RecordsIn(s.range).size() < 2) continue;
      if (!editor.HasPattern(s.event)) {
        Status st = editor.DefinePattern(s.event);
        if (!st.ok()) return st;
      }
      Status st = editor.DesignateRange(s.event, dev->truth, s.range);
      if (!st.ok()) return st;
    }
  }
  return editor.training_data();
}

VenueInput Finish(const VenueBuild& v, std::vector<config::LabeledSegment> training,
                  core::StreamOptions stream) {
  VenueInput out;
  out.id = v.id;
  out.dsm = v.dsm;
  out.training = std::move(training);
  out.stream = stream;
  return out;
}

// One generated session: noiseless samples, truth semantics and the noisy
// records the error model derives from them (noise drawn per session).
Result<Session> NewSession(const mobility::MobilityGenerator& generator,
                           uint32_t venue, const std::string& device,
                           TimestampMs start,
                           const positioning::ErrorModelOptions& noise, Rng* rng) {
  auto dev = generator.GenerateDevice(device, start, rng);
  if (!dev.ok()) return dev.status();
  Session s;
  s.venue = venue;
  s.device = device;
  s.truth = std::move(dev->truth.records);
  s.semantics = std::move(dev->semantics);
  positioning::PositioningSequence truth_seq;
  truth_seq.device_id = device;
  truth_seq.records = s.truth;
  s.raw = positioning::ApplyErrorModel(truth_seq, noise, rng).records;
  return s;
}

// Merges every session's records into one time-ordered schedule with a
// Poll(t) at every multiple of the poll interval, and marks the warm-up
// prefix.
void BuildSchedule(WorkloadInput* w, DurationMs warmup) {
  TimestampMs first = INT64_MAX, last = INT64_MIN;
  for (uint32_t s = 0; s < w->sessions.size(); ++s) {
    const Session& session = w->sessions[s];
    for (uint32_t i = 0; i < session.raw.size(); ++i) {
      w->schedule.push_back({session.raw[i].timestamp, s, i});
      first = std::min(first, session.raw[i].timestamp);
      last = std::max(last, session.raw[i].timestamp);
    }
  }
  for (TimestampMs t = (first / kPollInterval + 1) * kPollInterval; t <= last;
       t += kPollInterval) {
    w->schedule.push_back({t, kPollEvent, 0});
  }
  std::sort(w->schedule.begin(), w->schedule.end(), [](const Event& a, const Event& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.session != b.session) return a.session < b.session;
    return a.index < b.index;
  });
  w->warmup_events = static_cast<size_t>(
      std::lower_bound(w->schedule.begin(), w->schedule.end(), first + warmup,
                       [](const Event& e, TimestampMs t) { return e.t < t; }) -
      w->schedule.begin());
}

void CountRecords(WorkloadInput* w) {
  w->total_records = 0;
  for (const Session& s : w->sessions) w->total_records += s.raw.size();
}

// ---- city_steady -------------------------------------------------------------

// Sessions per rep. The traffic itself is loadgen's steady scenario; the
// count only sizes a rep (see perfbench/README.md).
constexpr int kCitySessions = 5000;
// Untimed ramp-up. Visit lifetimes run 3 to 14 minutes (median 6), so after
// 10 minutes nine in ten of the first visits have ended and the open buffers
// are near their steady count.
constexpr DurationMs kCityWarmup = 10 * kMillisPerMinute;

Result<WorkloadInput> CitySteady(uint64_t seed) {
  WorkloadInput w;
  w.name = "city_steady";
  w.target = Target::kCluster;
  std::vector<VenueBuild> venues;
  {
    auto mall = NewVenue("hangzhou-mall", dsm::BuildMallDsm({.floors = 7}), 7,
                         {"shop", "hall"}, {"hall", "corridor"});
    auto hub = NewVenue("transit-hub", dsm::BuildTransitHubDsm(), 2,
                        {"platform", "gate", "shop", "hall"}, {"hall", "corridor"});
    auto stadium = NewVenue("stadium", dsm::BuildStadiumDsm(), 2, {"stand", "shop"},
                            {"corridor"});
    auto office = NewVenue("office-tower", dsm::BuildOfficeDsm(), 2,
                           {"office", "meeting"}, {"corridor"});
    for (auto* v : {&mall, &hub, &stadium, &office}) {
      if (!v->ok()) return v->status();
      venues.push_back(std::move(*v).ValueOrDie());
    }
  }
  // loadgen's steady scenario: its Poisson arrival rate, its short visits,
  // its noise and flush policy.
  const loadgen::ScenarioConfig steady = loadgen::SteadyScenario();
  Rng rng(seed);
  for (VenueBuild& v : venues) {
    auto training = TrainingCorpus(v);
    if (!training.ok()) return training.status();
    w.venues.push_back(Finish(v, std::move(training).ValueOrDie(), steady.stream));
  }

  std::vector<mobility::MobilityGenerator> generators;
  std::vector<positioning::ErrorModelOptions> noise;
  for (VenueBuild& v : venues) {
    mobility::GeneratorOptions options = steady.mobility;
    options.target_categories = v.mobility.target_categories;
    options.wander_categories = v.mobility.wander_categories;
    generators.emplace_back(v.dsm.get(), v.planner.get(), options);
    positioning::ErrorModelOptions n = steady.noise;
    n.floor_count = v.floors;  // ordinary Wi-Fi noise, no coverage gaps
    noise.push_back(n);
  }
  double t = static_cast<double>(kBaseDay + 9 * kMillisPerHour);
  const double mean_gap_ms = kMillisPerMinute / steady.arrivals_per_min;
  while (w.sessions.size() < static_cast<size_t>(kCitySessions)) {
    t += Exponential(&rng, mean_gap_ms);
    // Round-robin over the venues, as loadgen's cluster target shards.
    const uint32_t venue = static_cast<uint32_t>(w.sessions.size() % venues.size());
    char id[48];
    std::snprintf(id, sizeof(id), "%s-%06zu", venues[venue].id.c_str(), w.sessions.size());
    auto s = NewSession(generators[venue], venue, id, static_cast<TimestampMs>(t),
                        noise[venue], &rng);
    if (!s.ok()) return s.status();
    // A session needs a few fixes to carry semantics; shorter ones would be
    // age-dropped by design, which this workload does not exercise.
    if (s->raw.size() < 8) continue;
    w.sessions.push_back(std::move(s).ValueOrDie());
  }
  BuildSchedule(&w, kCityWarmup);
  CountRecords(&w);
  for (uint32_t s = 0; s < w.sessions.size(); ++s) {
    w.queries.push_back({.kind = QueryKind::kDeviceHistory, .session = s});
  }
  Shuffle(&w.queries, &rng);

  json::Array venue_ids;
  for (const VenueBuild& v : venues) venue_ids.push_back(v.id);
  json::Object& p = w.params;
  p["venues"] = std::move(venue_ids);
  p["venue_split"] = "round-robin";
  p["sessions"] = kCitySessions;
  p["scenario"] = steady.name;
  p["arrivals_per_min"] = steady.arrivals_per_min;
  p["mobility"] = "ShortSessionMobility";
  p["noise"] = "DefaultNoise (no coverage gaps)";
  p["flush_after_ms"] = steady.stream.flush_after;
  p["max_buffer_records"] = static_cast<int64_t>(steady.stream.max_buffer_records);
  p["poll_interval_ms"] = kPollInterval;
  p["warmup_sim_ms"] = kCityWarmup;
  p["store"] = "file-backed, one per venue";
  p["reads"] = "one venue-store DeviceHistory per device, shuffled";
  p["training_devices_per_venue"] = kTrainingDevices;
  return w;
}

// ---- analyst_backfill --------------------------------------------------------

// Visits per rep. The count only sizes a rep (see perfbench/README.md).
constexpr int kBackfillDevices = 560;
constexpr int kOpenHours = 12;
constexpr DurationMs kQueryWindowStep = 15 * kMillisPerMinute;
constexpr int kAnalyticsCalls = 4;

Result<WorkloadInput> AnalystBackfill(uint64_t seed) {
  WorkloadInput w;
  w.name = "analyst_backfill";
  w.target = Target::kBatch;
  auto built = NewVenue("hangzhou-mall", dsm::BuildMallDsm({.floors = 7}), 7,
                        {"shop", "hall"}, {"hall", "corridor"});
  if (!built.ok()) return built.status();
  VenueBuild v = std::move(built).ValueOrDie();
  Rng rng(seed);
  auto training = TrainingCorpus(v);
  if (!training.ok()) return training.status();
  w.venues.push_back(Finish(v, std::move(training).ValueOrDie(), {}));

  // Full-length visits with Zipf-skewed shop popularity at skew 1, the middle
  // of the sweep in bench/bench_fig3_complementing.cpp: concentrated traffic
  // is what makes learned knowledge worth more than the uniform prior. The
  // default error model keeps its coverage gaps.
  mobility::GeneratorOptions options = v.mobility;
  options.popularity_skew = 1.0;
  mobility::MobilityGenerator generator(v.dsm.get(), v.planner.get(), options);
  positioning::ErrorModelOptions noise;
  noise.floor_count = 7;
  const TimestampMs open = kBaseDay + 9 * kMillisPerHour;
  w.chunks.resize(kOpenHours);
  for (int d = 0; d < kBackfillDevices; ++d) {
    // Stratified arrivals: the same number of visits starts in every hour.
    const int hour = d % kOpenHours;
    TimestampMs start = open + hour * kMillisPerHour + rng.UniformInt(0, kMillisPerHour - 1);
    char id[32];
    std::snprintf(id, sizeof(id), "dev-%05d", d);
    auto s = NewSession(generator, 0, id, start, noise, &rng);
    if (!s.ok()) return s.status();
    if (s->raw.size() < 8) {
      --d;
      continue;
    }
    w.chunks[hour].push_back(static_cast<uint32_t>(w.sessions.size()));
    w.sessions.push_back(std::move(s).ValueOrDie());
  }
  CountRecords(&w);

  // The fixed analyst mix: a grid over devices, regions and hours, so every
  // seed asks the same questions of different data; only the order is
  // seeded.
  std::vector<dsm::RegionId> regions, ground_floor;
  for (const auto& region : v.dsm->regions()) {
    regions.push_back(region.id);
    if (region.floor == 0) ground_floor.push_back(region.id);
  }
  for (uint32_t s = 0; s < w.sessions.size(); ++s) {
    w.queries.push_back({.kind = QueryKind::kDeviceHistory, .session = s});
  }
  for (dsm::RegionId region : regions) {
    for (int h = 0; h < kOpenHours; ++h) {
      TimestampMs t0 = open + h * kMillisPerHour;
      w.queries.push_back({.kind = QueryKind::kRegionVisitors, .from = region, .t0 = t0,
                           .t1 = t0 + kMillisPerHour});
    }
  }
  for (TimestampMs t0 = open; t0 + kMillisPerHour <= open + kOpenHours * kMillisPerHour;
       t0 += kQueryWindowStep) {
    w.queries.push_back({.kind = QueryKind::kSequencesInRange, .t0 = t0,
                         .t1 = t0 + kMillisPerHour});
  }
  for (dsm::RegionId from : ground_floor) {
    for (dsm::RegionId to : ground_floor) {
      w.queries.push_back({.kind = QueryKind::kFlowBetween, .from = from, .to = to});
    }
  }
  for (int i = 0; i < kAnalyticsCalls; ++i) w.queries.push_back({.kind = QueryKind::kBuildAnalytics});
  Shuffle(&w.queries, &rng);
  json::Object mix;
  for (QueryKind kind : {QueryKind::kDeviceHistory, QueryKind::kRegionVisitors,
                         QueryKind::kSequencesInRange, QueryKind::kFlowBetween,
                         QueryKind::kBuildAnalytics}) {
    mix[QueryName(kind)] = static_cast<int64_t>(std::count_if(
        w.queries.begin(), w.queries.end(), [kind](const Query& q) { return q.kind == kind; }));
  }
  json::Object& p = w.params;
  p["venue"] = "hangzhou-mall (7 floors)";
  p["devices"] = kBackfillDevices;
  p["open_hours"] = kOpenHours;
  p["chunks"] = "one BatchSession::Submit per hour of session starts";
  p["learn_knowledge"] = true;
  p["popularity_skew"] = options.popularity_skew;
  p["noise"] = "default error model, coverage gaps included";
  p["store"] = "file-backed, Flush then cold reopen";
  p["query_mix"] = std::move(mix);
  p["training_devices"] = kTrainingDevices;
  return w;
}

}  // namespace

const char* QueryName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kDeviceHistory: return "TripStore::DeviceHistory";
    case QueryKind::kRegionVisitors: return "TripStore::RegionVisitors";
    case QueryKind::kSequencesInRange: return "TripStore::SequencesInRange";
    case QueryKind::kFlowBetween: return "TripStore::FlowBetween";
    case QueryKind::kBuildAnalytics: return "TripStore::BuildAnalytics";
  }
  return "?";
}

std::vector<std::string> WorkloadNames() {
  return {"city_steady", "analyst_backfill"};
}

Result<WorkloadInput> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "city_steady") return CitySteady(seed);
  if (name == "analyst_backfill") return AnalystBackfill(seed);
  std::string known;
  for (const std::string& n : WorkloadNames()) known += (known.empty() ? "" : ", ") + n;
  return Status::NotFound("unknown workload \"" + name + "\" (known: " + known + ")");
}

}  // namespace perfbench
