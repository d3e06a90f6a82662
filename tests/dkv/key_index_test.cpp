#include "dkv/key_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "dkv/sim_rdma_dkv.h"
#include "random/xoshiro.h"

namespace scd::dkv {
namespace {

TEST(KeyIndexTest, UniqueKeysSortedAndRemapRoundTrips) {
  KeyIndex index;
  std::vector<std::uint64_t> keys = {7, 3, 7, 9, 3, 3, 1};
  index.build(keys);
  const auto unique = index.unique_keys();
  ASSERT_EQ(unique.size(), 4u);
  EXPECT_TRUE(std::is_sorted(unique.begin(), unique.end()));
  ASSERT_EQ(index.remap().size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(unique[index.remap()[i]], keys[i]);
  }
}

TEST(KeyIndexTest, AllSameKeyCollapsesToOne) {
  KeyIndex index;
  std::vector<std::uint64_t> keys(50, 42);
  index.build(keys);
  ASSERT_EQ(index.unique_keys().size(), 1u);
  for (std::uint32_t slot : index.remap()) EXPECT_EQ(slot, 0u);
}

TEST(KeyIndexTest, EmptyListYieldsEmptyIndex) {
  KeyIndex index;
  index.build({});
  EXPECT_TRUE(index.unique_keys().empty());
  EXPECT_TRUE(index.remap().empty());
}

TEST(KeyIndexTest, ReusedIndexForgetsPreviousBuild) {
  KeyIndex index;
  std::vector<std::uint64_t> first = {5, 5, 6};
  index.build(first);
  std::vector<std::uint64_t> second = {2, 9};
  index.build(second);
  ASSERT_EQ(index.unique_keys().size(), 2u);
  EXPECT_EQ(index.unique_keys()[0], 2u);
  EXPECT_EQ(index.unique_keys()[1], 9u);
}

TEST(KeyIndexTest, DedupedGatherIsByteIdenticalOnDuplicateHeavyList) {
  // Acceptance criterion: fetching the unique keys once and expanding
  // through the remap reproduces byte-for-byte what per-reference
  // get_rows returns on a duplicate-heavy key list.
  const std::uint32_t width = 5;
  SimRdmaDkv store(200, width, 4, comm::NetworkModel{}, sim::ComputeModel{});
  rng::Xoshiro256 init_rng(3);
  std::vector<float> row(width);
  for (std::uint64_t v = 0; v < 200; ++v) {
    for (float& x : row) {
      x = static_cast<float>(init_rng.next_double() * 1e6);
    }
    store.init_row(v, row);
  }

  rng::Xoshiro256 rng(17);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 500; ++i) keys.push_back(rng.next_below(40));

  std::vector<float> direct(keys.size() * width);
  store.get_rows(1, keys, direct);

  KeyIndex index;
  index.build(keys);
  EXPECT_LT(index.unique_keys().size(), keys.size());  // duplicate-heavy
  std::vector<float> unique_rows(index.unique_keys().size() * width);
  store.get_rows(1, index.unique_keys(), unique_rows);
  std::vector<float> expanded(keys.size() * width);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::copy_n(unique_rows.data() + index.remap()[i] * width, width,
                expanded.data() + i * width);
  }
  ASSERT_EQ(std::memcmp(direct.data(), expanded.data(),
                        direct.size() * sizeof(float)),
            0);
}

TEST(KeyIndexTest, DedupedFetchCostsLessOnDuplicateHeavyList) {
  SimRdmaDkv store(200, 64, 8, comm::NetworkModel{}, sim::ComputeModel{},
                   /*phantom=*/true);
  rng::Xoshiro256 rng(23);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 400; ++i) keys.push_back(rng.next_below(50));
  KeyIndex index;
  index.build(keys);
  EXPECT_LT(store.read_cost_keys(0, index.unique_keys()),
            store.read_cost_keys(0, keys));
}

}  // namespace
}  // namespace scd::dkv
