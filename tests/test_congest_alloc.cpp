#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "congest/network.hpp"
#include "congest/primitives.hpp"
#include "congest/programs.hpp"
#include "graph/generators.hpp"

// Heap-allocation guards for the CONGEST primitives. This binary replaces
// the global operator new with a counting one, and each test reads the
// counter right around the call it guards, so setup and gtest's own work
// stay outside the measurement.

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace deck {
namespace {

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

/// Allocations one pipelined_broadcast of `len` items makes on `net`.
std::uint64_t broadcast_allocations(Network& net, const CommForest& f, std::size_t len) {
  std::vector<std::vector<KeyedItem>> root_items(f.parent.size());
  for (std::size_t i = 0; i < len; ++i)
    root_items[0].push_back(KeyedItem{i, 2 * i, 3 * i});
  const std::uint64_t before = allocations();
  const std::vector<KeyedItem> got = pipelined_broadcast(net, f, std::move(root_items));
  const std::uint64_t used = allocations() - before;
  EXPECT_EQ(got.size(), len);
  return used;
}

TEST(CongestAlloc, PipelinedBroadcastAllocationsDoNotScaleWithTheList) {
  // Vertices count what they receive instead of each storing a copy, so a
  // longer list must not cost allocations per vertex.
  const Graph g = hypercube(8);
  const int n = g.num_vertices();
  ASSERT_EQ(n, 256);
  Network net(g);
  const CommForest f = CommForest::from_tree(distributed_bfs(net, 0));
  broadcast_allocations(net, f, 1);  // warm the network's runner
  const std::uint64_t short_list = broadcast_allocations(net, f, 1);
  const std::uint64_t long_list = broadcast_allocations(net, f, 64);
  const std::uint64_t diff = long_list > short_list ? long_list - short_list
                                                    : short_list - long_list;
  EXPECT_LT(diff, static_cast<std::uint64_t>(n))
      << "len 1: " << short_list << " allocations, len 64: " << long_list;
}

/// Allocations of ConvergecastProgram::setup on a BFS tree of `g`.
std::uint64_t convergecast_setup_allocations(const Graph& g) {
  Network net(g);
  const CommForest f = CommForest::from_tree(distributed_bfs(net, 0));
  ConvergecastProgram prog(ForestData::from_comm_forest(f), CombineOp::kSum,
                           std::vector<std::uint64_t>(f.parent.size(), 1));
  const std::uint64_t before = allocations();
  prog.setup(g);
  return allocations() - before;
}

TEST(CongestAlloc, ConvergecastSetupAllocationsDoNotGrowWithN) {
  // Children lists are two flat arrays, not one vector per vertex.
  const std::uint64_t small = convergecast_setup_allocations(hypercube(5));
  const std::uint64_t large = convergecast_setup_allocations(hypercube(10));
  EXPECT_EQ(large, small) << "n=32: " << small << " allocations, n=1024: " << large;
}

}  // namespace
}  // namespace deck
