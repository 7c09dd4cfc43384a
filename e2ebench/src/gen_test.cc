// Determinism test of the benchmark's generators: the same seed gives
// byte-identical request streams, DTD texts and reference verdicts, a
// different seed changes them, and the seed-1 streams match the digests
// pinned when the benchmark was defined.  Exit 0 on success; every failed
// check is printed.
//
//   .bench_build/e2ebench/e2e_gen_test      (or: ctest in that directory)

#include <cstdio>
#include <string>

#include "gen.h"
#include "serve/protocol.h"

namespace e2e {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

/// The first `n` QUERY frames of zipf-hot connection `conn`, as bytes,
/// followed by every pair's reference verdict.
std::string ZipfBytes(uint64_t seed, int conn, int n) {
  ZipfHot w(seed);
  w.ComputeReferences();
  ZipfHot::Stream stream(w, conn);
  std::string out;
  for (int i = 0; i < n; ++i) {
    const Query& q = w.QueryFor(stream.Next());
    out += tpc::serve::EncodeQuery(static_cast<uint64_t>(i), q.mode, q.p, q.q);
  }
  for (const ZipfHot::Pair& p : w.pairs()) out += p.expected ? '1' : '0';
  return out;
}

/// The first `runs` heavy runs and `lights` light requests of conp-mix,
/// as frames, plus their reference verdicts.
std::string ConpBytes(uint64_t seed, int runs, int lights) {
  ConpMix w(seed);
  w.ComputeReferences();
  std::string out;
  uint64_t id = 0;
  for (int k = 0; k < runs; ++k) {
    for (const Query& q : w.HeavyRun(static_cast<uint64_t>(k))) {
      out += tpc::serve::EncodeQuery(id++, q.mode, q.p, q.q);
      out += q.expected ? '1' : '0';
    }
  }
  for (int i = 0; i < lights; ++i) {
    const Query& q = w.Light(static_cast<uint64_t>(i));
    out += tpc::serve::EncodeQuery(id++, q.mode, q.p, q.q);
    out += q.expected ? '1' : '0';
  }
  return out;
}

/// Every schema-dtd DTD text and pattern, plus reference verdicts.
std::string SchemaBytes(uint64_t seed) {
  SchemaDtd w(seed);
  w.ComputeReferences();
  std::string out;
  for (const SchemaSpec& s : w.specs()) {
    out += s.dtd + "\n" + s.p + "\n" + s.q + "\n";
    out += s.expected ? '1' : '0';
  }
  return out;
}

/// FNV-1a 64 of `bytes`.
uint64_t Digest(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Fails when the seed-1 stream's digest drifts from the one pinned when
/// the benchmark was defined: a parent and a change must be measured on the
/// same bytes.
void CheckPinned(const std::string& bytes, uint64_t pinned, const char* what) {
  const uint64_t got = Digest(bytes);
  if (got != pinned) {
    std::fprintf(stderr, "FAIL: %s: seed-1 digest %016llx, pinned %016llx\n",
                 what, static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(pinned));
    ++failures;
  }
}

}  // namespace
}  // namespace e2e

int main() {
  using namespace e2e;
  CheckPinned(ZipfBytes(1, 0, 2000), 0x9793af8251c031c5ULL, "zipf-hot");
  CheckPinned(ConpBytes(1, 64, 64), 0x474537409dae937cULL, "conp-mix");
  CheckPinned(SchemaBytes(1), 0xb95b67415048ab6fULL, "schema-dtd");
  Check(ZipfBytes(7, 0, 2000) == ZipfBytes(7, 0, 2000),
        "zipf-hot: same seed, same bytes");
  Check(ZipfBytes(7, 0, 2000) != ZipfBytes(8, 0, 2000),
        "zipf-hot: different seed, different bytes");
  Check(ZipfBytes(7, 0, 2000) != ZipfBytes(7, 1, 2000),
        "zipf-hot: connections draw different streams");
  Check(ConpBytes(7, 64, 64) == ConpBytes(7, 64, 64),
        "conp-mix: same seed, same bytes");
  Check(ConpBytes(7, 64, 64) != ConpBytes(8, 64, 64),
        "conp-mix: different seed, different bytes");
  Check(SchemaBytes(7) == SchemaBytes(7), "schema-dtd: same seed, same bytes");
  Check(SchemaBytes(7) != SchemaBytes(8),
        "schema-dtd: different seed, different bytes");
  if (failures == 0) std::printf("e2e_gen_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
