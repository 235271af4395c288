// Zero-allocation guard of the per-record translation primitives. This binary
// replaces the global operator new/delete with counting forwards to malloc, so
// it is built apart from trips_tests (which keeps the sanitizers' own new/delete
// checks). Each test calls its primitive once to warm up, then asserts that a
// second call allocates nothing. Every probe point hits at least one candidate
// shape, so the point-in-polygon tests really run.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "annotation/event_classifier.h"
#include "annotation/features.h"
#include "dsm/routing.h"
#include "dsm/sample_spaces.h"
#include "geometry/shapes.h"
#include "mobility/generator.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace trips {
namespace {

// Heap allocations made by the second of two calls to `fn`.
template <typename Fn>
uint64_t AllocationsAfterWarmUp(Fn&& fn) {
  fn();
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(ZeroAllocTest, CountsAHeapAllocation) {
  // The replacement is in effect: a block that escapes is counted every time.
  static void* volatile escaped = nullptr;
  EXPECT_EQ(AllocationsAfterWarmUp([] {
              escaped = ::operator new(64);
              ::operator delete(escaped);
            }),
            1u);
}

TEST(ZeroAllocTest, PolygonContainsAndBoundaryDistance) {
  const geo::Polygon l({{0, 0}, {10, 0}, {10, 4}, {4, 4}, {4, 10}, {0, 10}});
  const geo::Point2 inside{2, 8}, outside{8, 8}, boundary{10, 2}, corner{4, 4};
  bool results[4] = {};
  double distance = 0;
  EXPECT_EQ(AllocationsAfterWarmUp([&] { results[0] = l.Contains(inside); }), 0u);
  EXPECT_EQ(AllocationsAfterWarmUp([&] { results[1] = l.Contains(outside); }), 0u);
  EXPECT_EQ(AllocationsAfterWarmUp([&] { results[2] = l.Contains(boundary); }), 0u);
  EXPECT_EQ(AllocationsAfterWarmUp([&] { results[3] = l.Contains(corner); }), 0u);
  EXPECT_EQ(AllocationsAfterWarmUp([&] { distance = l.BoundaryDistanceTo(outside); }),
            0u);
  EXPECT_TRUE(results[0]);
  EXPECT_FALSE(results[1]);
  EXPECT_TRUE(results[2]);
  EXPECT_TRUE(results[3]);
  EXPECT_DOUBLE_EQ(distance, 4);
}

class ZeroAllocDsmTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mall_ = std::make_unique<dsm::Dsm>(
        dsm::BuildMallDsm({.floors = 2, .shops_per_arm = 2}).ValueOrDie());
  }
  static void TearDownTestSuite() { mall_.reset(); }

  static inline std::unique_ptr<dsm::Dsm> mall_;
};

TEST_F(ZeroAllocDsmTest, RegionAtAndPartitionAt) {
  const dsm::SemanticRegion* shop = mall_->FindRegionByName("Adidas");
  ASSERT_NE(shop, nullptr);
  const geo::IndoorPoint in_shop{shop->Center(), shop->floor};
  dsm::RegionId region = dsm::kInvalidRegion;
  dsm::EntityId partition = dsm::kInvalidEntity;
  EXPECT_EQ(AllocationsAfterWarmUp([&] { region = mall_->RegionAt(in_shop); }), 0u);
  EXPECT_EQ(AllocationsAfterWarmUp([&] { partition = mall_->PartitionAt(in_shop); }),
            0u);
  EXPECT_EQ(region, shop->id);
  EXPECT_NE(partition, dsm::kInvalidEntity);
}

TEST_F(ZeroAllocDsmTest, SnapIfOutsideOnAWalkablePoint) {
  const dsm::SemanticRegion* shop = mall_->FindRegionByName("Nike");
  ASSERT_NE(shop, nullptr);
  const geo::IndoorPoint walkable{shop->Center(), shop->floor};
  bool snapped = true;
  geo::IndoorPoint out;
  EXPECT_EQ(
      AllocationsAfterWarmUp([&] { out = mall_->SnapIfOutside(walkable, &snapped); }),
      0u);
  EXPECT_FALSE(snapped);
  EXPECT_EQ(out, walkable);
}

TEST_F(ZeroAllocDsmTest, EventClassifierIdentifyWithATrainedForest) {
  dsm::RoutePlanner planner = dsm::RoutePlanner::Build(mall_.get()).ValueOrDie();
  mobility::MobilityGenerator gen(mall_.get(), &planner);
  Rng rng(5);
  std::vector<config::LabeledSegment> corpus;
  for (int d = 0; d < 4; ++d) {
    auto dev = gen.GenerateDevice("alloc-" + std::to_string(d), 0, &rng);
    ASSERT_TRUE(dev.ok());
    for (const core::MobilitySemantic& s : dev->semantics.semantics) {
      config::LabeledSegment seg;
      seg.event = s.event;
      seg.segment.records = dev->truth.RecordsIn(s.range);
      if (seg.segment.records.size() >= 2) corpus.push_back(std::move(seg));
    }
  }
  annotation::EventClassifier classifier;  // random forest
  ASSERT_TRUE(classifier.Train(corpus).ok());
  ASSERT_EQ(classifier.model()->Name(), "random_forest");
  for (const config::LabeledSegment& seg : corpus) {
    const positioning::RecordBlock block =
        positioning::RecordBlock::FromSequence(seg.segment);
    const annotation::FeatureVector f =
        annotation::ExtractFeatures(block, 0, block.Size());
    std::string event;
    ASSERT_EQ(AllocationsAfterWarmUp([&] { event = classifier.Identify(f); }), 0u)
        << "segment labelled " << seg.event;
    EXPECT_FALSE(event.empty());
  }
}

}  // namespace
}  // namespace trips
