#include "ppds/field/m61xn.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "ppds/common/rng.hpp"
#include "ppds/field/m61.hpp"

// The lane backend's contract is bit-identity with scalar M61: every kernel
// must return exactly the residues the scalar chain would. Results are read
// through the raw words (.v), not lane(), which would re-reduce them and
// hide a non-canonical output. These tests sweep the fold boundaries (0, 1,
// p-1, p, 2^61-1, 2^64-1) and seeded random inputs through whichever kernel
// simd_caps() dispatched to; the CI forced-scalar leg reruns the same suite
// with PPDS_FORCE_SCALAR=1 so the portable path gets the identical sweep.

namespace ppds::field {
namespace {

M61 random_element(Rng& rng) {
  for (;;) {
    const std::uint64_t v = rng() >> 3;
    if (v < M61::kP) return M61(v);
  }
}

// Raw 64-bit boundary words for the reducing entry points.
const std::array<std::uint64_t, 6> kRawBoundaries = {
    0u, 1u, M61::kP - 1, M61::kP, (std::uint64_t{1} << 61) - 1, ~std::uint64_t{0}};

M61x8 lanes_of(const std::vector<M61>& xs, std::size_t base) {
  std::array<M61, kM61Lanes> tmp{};
  for (std::size_t i = 0; i < kM61Lanes; ++i) tmp[i] = xs[base + i];
  return M61x8::load(tmp.data());
}

M61x8 random_lanes(Rng& rng) {
  M61x8 x = M61x8::zero();
  for (std::size_t l = 0; l < kM61Lanes; ++l) {
    x.v[l] = random_element(rng).value();
  }
  return x;
}

// Folds every lane with the reducing M61(uint64_t) constructor: the scalar
// reading of a relaxed residue, for comparing dag_eval8 output.
M61x8 canonical(const M61x8& x) {
  M61x8 out;
  for (std::size_t l = 0; l < kM61Lanes; ++l) out.v[l] = M61(x.v[l]).value();
  return out;
}

// Packs eight raw words into eight one-word wire records for reduce8_strided.
std::array<std::uint8_t, 8 * kM61Lanes> records_of(
    const std::array<std::uint64_t, kM61Lanes>& raw) {
  std::array<std::uint8_t, 8 * kM61Lanes> buf{};
  for (std::size_t l = 0; l < kM61Lanes; ++l) {
    std::memcpy(buf.data() + 8 * l, &raw[l], 8);
  }
  return buf;
}

TEST(SimdCaps, ProbeIsConsistentAndLogged) {
  const SimdCaps& caps = simd_caps();
  // Visible in the test log so CI legs can confirm which path they exercised.
  std::printf("simd_caps: active=%s avx2_compiled=%d avx2_runtime=%d "
              "forced_scalar=%d\n",
              caps.active, caps.avx2_compiled ? 1 : 0,
              caps.avx2_runtime ? 1 : 0, caps.forced_scalar ? 1 : 0);
  const std::string active = caps.active;
  EXPECT_TRUE(active == "avx2" || active == "scalar");
  if (caps.forced_scalar) {
    EXPECT_EQ(active, "scalar");
  }
  if (active == "avx2") {
    EXPECT_TRUE(caps.avx2_compiled);
    EXPECT_TRUE(caps.avx2_runtime);
    EXPECT_FALSE(caps.forced_scalar);
  }
  // The probe is cached: a second call must return the same selection.
  EXPECT_EQ(std::string(simd_caps().active), active);
}

TEST(M61x8, BroadcastLoadStoreRoundTrip) {
  const M61x8 b = M61x8::broadcast(M61(42));
  for (std::size_t i = 0; i < kM61Lanes; ++i) EXPECT_EQ(b.lane(i).value(), 42u);

  std::array<M61, kM61Lanes> in{};
  for (std::size_t i = 0; i < kM61Lanes; ++i) in[i] = M61(1000 + i);
  const M61x8 packed = M61x8::load(in.data());
  std::array<M61, kM61Lanes> out{};
  packed.store(out.data());
  for (std::size_t i = 0; i < kM61Lanes; ++i) EXPECT_EQ(out[i], in[i]);
}

TEST(M61x8, ReduceMatchesScalarConstructorOnBoundaries) {
  // Every pairing of boundary words through the strided packed fold vs
  // M61(uint64).
  for (std::uint64_t hi : kRawBoundaries) {
    std::array<std::uint64_t, kM61Lanes> raw{};
    for (std::size_t i = 0; i < kM61Lanes; ++i) {
      raw[i] = i < kRawBoundaries.size() ? kRawBoundaries[i] : hi;
    }
    M61x8 folded;
    reduce8_strided(records_of(raw).data(), 8, 1, &folded);
    for (std::size_t i = 0; i < kM61Lanes; ++i) {
      EXPECT_EQ(folded.v[i], M61(raw[i]).value()) << "lane " << i;
    }
  }
}

TEST(M61x8, ReduceMatchesScalarConstructorRandom) {
  Rng rng(101);
  for (int iter = 0; iter < 10000 / 8; ++iter) {
    std::array<std::uint64_t, kM61Lanes> raw{};
    for (auto& w : raw) w = rng();
    M61x8 folded;
    reduce8_strided(records_of(raw).data(), 8, 1, &folded);
    for (std::size_t i = 0; i < kM61Lanes; ++i) {
      ASSERT_EQ(folded.v[i], M61(raw[i]).value()) << "lane " << i;
    }
  }
}

TEST(M61x8, AddSubMulMatchScalarOnBoundaries) {
  // Canonicalized boundary residues in every lane pairing: the raw words
  // above reduce to {0, 1, p-1} which are exactly the wrap-around cases.
  // The product runs through horner8 with coefficients {0, b}, the kernel
  // that carries the lane multiply.
  std::vector<M61> elems;
  elems.reserve(kRawBoundaries.size() * kRawBoundaries.size());
  for (std::uint64_t a : kRawBoundaries) {
    for (std::uint64_t b : kRawBoundaries) {
      elems.emplace_back(a + b);  // mixes the boundaries a little further
    }
  }
  for (std::uint64_t w : kRawBoundaries) elems.emplace_back(w);
  while (elems.size() % kM61Lanes != 0) elems.emplace_back(0);

  for (std::size_t i = 0; i + kM61Lanes <= elems.size(); i += kM61Lanes) {
    for (std::size_t j = 0; j + kM61Lanes <= elems.size(); j += kM61Lanes) {
      const M61x8 a = lanes_of(elems, i), b = lanes_of(elems, j);
      const M61x8 s = add(a, b);
      for (std::size_t l = 0; l < kM61Lanes; ++l) {
        ASSERT_EQ(s.v[l], (elems[i + l] + elems[j + l]).value())
            << "add lane " << l;
        const std::array<M61, 2> c = {M61(0), elems[j + l]};
        ASSERT_EQ(horner8(c.data(), c.size(), a).v[l],
                  (elems[i + l] * elems[j + l]).value())
            << "mul lane " << l;
      }
    }
  }
}

TEST(M61x8, AddMatchesScalarRandom) {
  Rng rng(102);
  for (int iter = 0; iter < 10000 / 8; ++iter) {
    std::array<M61, kM61Lanes> xs{}, ys{};
    for (std::size_t i = 0; i < kM61Lanes; ++i) {
      xs[i] = random_element(rng);
      ys[i] = random_element(rng);
    }
    const M61x8 r = add(M61x8::load(xs.data()), M61x8::load(ys.data()));
    for (std::size_t i = 0; i < kM61Lanes; ++i) {
      ASSERT_EQ(r.v[i], (xs[i] + ys[i]).value()) << "lane " << i;
    }
  }
}

// Every dispatch path that is compiled into this binary must agree with the
// portable reference, whatever simd_caps() picked for the public op.
TEST(M61x8, CompiledKernelsAgreeWithPortable) {
#if PPDS_M61XN_HAVE_AVX2_TARGET
  if (simd_caps().avx2_runtime) {
    Rng rng(108);
    for (int iter = 0; iter < 2000; ++iter) {
      const M61x8 a = random_lanes(rng), b = random_lanes(rng);
      ASSERT_EQ(detail::add_avx2(a, b), detail::add_portable(a, b));
    }
  } else {
    GTEST_SKIP() << "CPU lacks AVX2; cross-kernel check not runnable";
  }
#else
  GTEST_SKIP() << "no AVX2 kernel compiled on this target";
#endif
}

// --- fused kernel dispatchers -----------------------------------------------
// The OMPE hot loops go through these fused entry points (one dispatch per
// block, not per op). Contract: lane l of every result equals the scalar M61
// chain written in each dispatcher's doc comment — except dag_eval8, whose
// stored node values are only congruent mod p (relaxed residues) and must be
// canonicalized before byte comparison. The CI forced-scalar leg reruns all
// of these through the portable kernels.

TEST(M61Kernels, Horner8MatchesScalarChain) {
  Rng rng(201);
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{9}, std::size_t{33}}) {
    for (int iter = 0; iter < 200; ++iter) {
      std::vector<M61> c(n);
      for (auto& ci : c) ci = random_element(rng);
      M61x8 x = M61x8::zero();
      for (std::size_t l = 0; l < kM61Lanes; ++l) {
        x.v[l] = random_element(rng).value();
      }
      const M61x8 got = horner8(c.data(), n, x);
      for (std::size_t l = 0; l < kM61Lanes; ++l) {
        M61 acc = c[n - 1];
        for (std::size_t i = n - 1; i-- > 0;) acc = acc * x.lane(l) + c[i];
        ASSERT_EQ(got.v[l], acc.value()) << "n=" << n << " lane " << l;
      }
    }
  }
}

TEST(M61Kernels, Dot8ReduceStridedMatchesDenseChain) {
  Rng rng(203);
  const std::size_t n = 19;
  // Strided wire layout: eight records of `stride` bytes, term i's word at
  // offset 8*i in each; the extra tail bytes must be ignored.
  const std::size_t stride = 8 * n + 13;
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<M61> w(n);
    for (auto& wi : w) wi = random_element(rng);
    std::vector<std::uint8_t> buf(kM61Lanes * stride);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
    std::vector<std::uint64_t> dense(n * kM61Lanes);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t l = 0; l < kM61Lanes; ++l) {
        std::uint64_t word = 0;
        std::memcpy(&word, buf.data() + l * stride + 8 * i, 8);
        dense[i * kM61Lanes + l] = word;
      }
    }
    const M61x8 init = M61x8::broadcast(random_element(rng));
    const M61x8 got = dot8_reduce_strided(init, w.data(), buf.data(), stride, n);
    for (std::size_t l = 0; l < kM61Lanes; ++l) {
      M61 acc = init.lane(l);
      for (std::size_t i = 0; i < n; ++i) {
        acc = acc + w[i] * M61(dense[i * kM61Lanes + l]);
      }
      ASSERT_EQ(got.v[l], acc.value()) << "lane " << l;
    }
  }
}

TEST(M61Kernels, Reduce8StridedFoldsEveryWord) {
  Rng rng(204);
  const std::size_t n = 11;
  const std::size_t stride = 8 * n + 5;
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<std::uint8_t> buf(kM61Lanes * stride);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
    std::vector<M61x8> out(n);
    reduce8_strided(buf.data(), stride, n, out.data());
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t l = 0; l < kM61Lanes; ++l) {
        std::uint64_t word = 0;
        std::memcpy(&word, buf.data() + l * stride + 8 * j, 8);
        ASSERT_EQ(out[j].v[l], M61(word).value()) << "j=" << j << " lane " << l;
      }
    }
  }
}

TEST(M61Kernels, Horner8ScatterStoresScalarHornerValues) {
  Rng rng(205);
  for (std::size_t deg_p1 : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                             std::size_t{9}}) {
    const std::size_t n = 17;
    std::vector<M61> c(n * deg_p1);
    for (auto& ci : c) ci = random_element(rng);
    M61x8 x = M61x8::zero();
    for (std::size_t l = 0; l < kM61Lanes; ++l) {
      x.v[l] = random_element(rng).value();
    }
    // Per-lane destination records at staggered offsets, like the kept
    // subset of a request body.
    std::vector<std::uint8_t> sink(kM61Lanes * (8 * n + 24), 0xee);
    std::array<std::uint8_t*, kM61Lanes> ptrs{};
    for (std::size_t l = 0; l < kM61Lanes; ++l) {
      ptrs[l] = sink.data() + l * (8 * n + 24) + (l % 3);
    }
    horner8_scatter(c.data(), deg_p1, n, x, ptrs.data());
    for (std::size_t g = 0; g < n; ++g) {
      for (std::size_t l = 0; l < kM61Lanes; ++l) {
        M61 acc = c[g * deg_p1 + deg_p1 - 1];
        for (std::size_t i = deg_p1 - 1; i-- > 0;) {
          acc = acc * x.lane(l) + c[g * deg_p1 + i];
        }
        std::uint64_t word = 0;
        std::memcpy(&word, ptrs[l] + 8 * g, 8);
        ASSERT_EQ(word, acc.value())
            << "deg_p1=" << deg_p1 << " g=" << g << " lane " << l;
      }
    }
  }
}

TEST(M61Kernels, HornerGroupsStoresScalarHornerValues) {
  Rng rng(209);
  for (std::size_t deg_p1 : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                             std::size_t{9}}) {
    // Group counts around the vector-block boundary (8 groups per block).
    for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                          std::size_t{21}}) {
      std::vector<M61> c(n * deg_p1);
      for (auto& ci : c) ci = random_element(rng);
      const M61 x = random_element(rng);
      std::vector<std::uint8_t> out(8 * n, 0xee);
      horner_groups(c.data(), deg_p1, n, x, out.data());
      for (std::size_t g = 0; g < n; ++g) {
        M61 acc = c[g * deg_p1 + deg_p1 - 1];
        for (std::size_t i = deg_p1 - 1; i-- > 0;) {
          acc = acc * x + c[g * deg_p1 + i];
        }
        std::uint64_t word = 0;
        std::memcpy(&word, out.data() + 8 * g, 8);
        ASSERT_EQ(word, acc.value())
            << "deg_p1=" << deg_p1 << " n=" << n << " g=" << g;
      }
    }
  }
}

TEST(M61Kernels, DagEval8IsCongruentToScalarDagSweep) {
  Rng rng(206);
  // Hand-built monomial DAG over 3 variables (graded order):
  //   0: x0   1: x1   2: x2   3: x0*x1   4: x0*x1*x2   5: (x0*x1)^2*... chain
  const std::uint32_t one = 0xffffffffu;
  const std::vector<std::uint32_t> parent = {one, one, one, 0, 3, 4, 5};
  const std::vector<std::uint32_t> var = {0, 1, 2, 1, 2, 0, 0};
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<M61x8> x(3, M61x8::zero());
    for (auto& xv : x) {
      for (std::size_t l = 0; l < kM61Lanes; ++l) {
        xv.v[l] = random_element(rng).value();
      }
    }
    std::vector<M61x8> out(parent.size());
    dag_eval8(parent.data(), var.data(), parent.size(), one, x.data(),
              out.data());
    for (std::size_t i = 0; i < parent.size(); ++i) {
      // Relaxed contract: canonicalize before comparing against the scalar
      // recurrence (the scalar side is canonical at every node).
      const M61x8 canon = canonical(out[i]);
      for (std::size_t l = 0; l < kM61Lanes; ++l) {
        const M61 xv = x[var[i]].lane(l);
        const M61 want =
            parent[i] == one ? xv : canonical(out[parent[i]]).lane(l) * xv;
        ASSERT_EQ(canon.lane(l), want) << "node " << i << " lane " << l;
      }
    }
  }
}

TEST(M61Kernels, Dot8NodesCanonicalOverRelaxedWork) {
  Rng rng(207);
  const std::uint32_t one = 0xffffffffu;
  const std::vector<std::uint32_t> parent = {one, one, 0, 2};
  const std::vector<std::uint32_t> var = {0, 1, 1, 0};
  // Terms: constant + one per node, exercising both sides of the select.
  const std::vector<std::uint32_t> node = {one, 0, 1, 2, 3};
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<M61> c(node.size());
    for (auto& ci : c) ci = random_element(rng);
    std::vector<M61x8> x(2, M61x8::zero());
    for (auto& xv : x) {
      for (std::size_t l = 0; l < kM61Lanes; ++l) {
        xv.v[l] = random_element(rng).value();
      }
    }
    std::vector<M61x8> work(parent.size());
    dag_eval8(parent.data(), var.data(), parent.size(), one, x.data(),
              work.data());
    const M61x8 got =
        dot8_nodes(c.data(), node.data(), node.size(), one, work.data());
    for (std::size_t l = 0; l < kM61Lanes; ++l) {
      // Scalar reference over the CANONICAL node values: dot8_nodes must
      // absorb the relaxed work residues and still return canonical lanes.
      M61 acc(0);
      for (std::size_t t = 0; t < node.size(); ++t) {
        acc = acc + (node[t] == one
                         ? c[t]
                         : c[t] * canonical(work[node[t]]).lane(l));
      }
      ASSERT_EQ(got.v[l], acc.value()) << "lane " << l;
    }
  }
}

// Both compiled kernel families of every fused entry point, side by side in
// one process, so the AVX2 leg is checked against the portable reference on
// identical inputs (the public dispatchers only ever reach one of them).
// Term and group counts are odd and even to cover the unrolled loops' tails.
TEST(M61Kernels, FusedAvx2AgreesWithPortable) {
#if PPDS_M61XN_HAVE_AVX2_TARGET
  if (!simd_caps().avx2_runtime) {
    GTEST_SKIP() << "CPU lacks AVX2; cross-kernel check not runnable";
  }
  Rng rng(208);
  // Monomial DAG over 3 variables and a term walk over it: a constant term
  // plus one term per node.
  const std::uint32_t one = 0xffffffffu;
  const std::vector<std::uint32_t> parent = {one, one, one, 0, 3, 4, 5};
  const std::vector<std::uint32_t> var = {0, 1, 2, 1, 2, 0, 0};
  const std::vector<std::uint32_t> node = {one, 0, 1, 2, 3, 4, 5, 6};
  for (int iter = 0; iter < 200; ++iter) {
    for (std::size_t n : {std::size_t{22}, std::size_t{23}}) {
      std::vector<M61> c(n);
      for (auto& ci : c) ci = random_element(rng);
      const M61x8 x = random_lanes(rng);
      ASSERT_EQ(detail::horner8_avx2(c.data(), n, x),
                detail::horner8_portable(c.data(), n, x));

      // Eight wire records of raw 64-bit words, boundary words mixed in.
      const std::size_t stride = 8 * n + 5;
      std::vector<std::uint8_t> buf(kM61Lanes * stride);
      for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
      for (std::size_t l = 0; l < kM61Lanes; ++l) {
        const std::uint64_t w = kRawBoundaries[(iter + l) % kRawBoundaries.size()];
        std::memcpy(buf.data() + l * stride + 8 * (l % n), &w, 8);
      }
      ASSERT_EQ(
          detail::dot8_reduce_strided_avx2(x, c.data(), buf.data(), stride, n),
          detail::dot8_reduce_strided_portable(x, c.data(), buf.data(), stride,
                                               n));
      std::vector<M61x8> ra(n), rp(n);
      detail::reduce8_strided_avx2(buf.data(), stride, n, ra.data());
      detail::reduce8_strided_portable(buf.data(), stride, n, rp.data());
      ASSERT_EQ(ra, rp);

      // Cover-style groups of two coefficients: 10 or 11 groups, so both
      // the paired and the single-group loops run.
      const std::size_t deg_p1 = 2;
      const std::size_t groups = n - 12;
      const std::size_t rec = 8 * groups;
      std::vector<std::uint8_t> sa(kM61Lanes * rec), sp(kM61Lanes * rec);
      std::array<std::uint8_t*, kM61Lanes> pa{}, pp{};
      for (std::size_t l = 0; l < kM61Lanes; ++l) {
        pa[l] = sa.data() + l * rec;
        pp[l] = sp.data() + l * rec;
      }
      detail::horner8_scatter_avx2(c.data(), deg_p1, groups, x, pa.data());
      detail::horner8_scatter_portable(c.data(), deg_p1, groups, x, pp.data());
      ASSERT_EQ(sa, sp);
      std::vector<std::uint8_t> ga(rec), gp(rec);
      detail::horner_groups_avx2(c.data(), deg_p1, groups, x.lane(0),
                                 ga.data());
      detail::horner_groups_portable(c.data(), deg_p1, groups, x.lane(0),
                                     gp.data());
      ASSERT_EQ(ga, gp);
    }

    // dag_eval8: the AVX2 leg stores relaxed residues, so canonicalize them
    // before comparing; dot8_nodes then runs each leg over its own work
    // array, the pairing the dispatchers produce, and must agree exactly.
    std::vector<M61x8> x(3);
    for (auto& xv : x) xv = random_lanes(rng);
    std::vector<M61x8> wa(parent.size()), wp(parent.size());
    detail::dag_eval8_avx2(parent.data(), var.data(), parent.size(), one,
                           x.data(), wa.data());
    detail::dag_eval8_portable(parent.data(), var.data(), parent.size(), one,
                               x.data(), wp.data());
    for (std::size_t i = 0; i < parent.size(); ++i) {
      ASSERT_EQ(canonical(wa[i]), wp[i]) << "node " << i;
    }
    std::vector<M61> c(node.size());
    for (auto& ci : c) ci = random_element(rng);
    for (std::size_t terms : {node.size() - 1, node.size()}) {
      ASSERT_EQ(
          detail::dot8_nodes_avx2(c.data(), node.data(), terms, one, wa.data()),
          detail::dot8_nodes_portable(c.data(), node.data(), terms, one,
                                      wp.data()))
          << "terms " << terms;
    }
  }
#else
  GTEST_SKIP() << "no AVX2 kernel compiled on this target";
#endif
}

}  // namespace
}  // namespace ppds::field
