// Checks that the benchmark's serve oracle accepts a correct reply and
// rejects corrupted ones: one flipped distance bit (the reply travelling
// through the wire codec first), a flipped position bit, a wrong id and a
// missing neighbour. Exits 0 when every check holds.
#include <bit>
#include <cstdio>
#include <vector>

#include "src/common/rng.h"
#include "src/core/server.h"
#include "src/rpc/wire.h"
#include "workloads.h"

namespace {

using namespace senn;

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  Rng rng = Rng(7).Stream("oracle-test");
  std::vector<core::Poi> pois;
  for (int i = 0; i < 2000; ++i) pois.push_back({i, {rng.Uniform(0, 5000), rng.Uniform(0, 5000)}});
  core::SpatialServer engine(pois);
  const core::ServerReply expected = engine.QueryKnn({2500.0, 2500.0}, 10);

  // The reply as the client sees it: encoded, framed and decoded.
  std::vector<uint8_t> bytes;
  rpc::EncodeKnnReply(1, expected, &bytes);
  rpc::FrameDecoder decoder;
  rpc::Frame frame;
  Expect(decoder.Feed(bytes.data(), bytes.size()).ok() && decoder.Next(&frame), "reply frames");
  Result<core::ServerReply> received = rpc::DecodeKnnReply(frame.payload);
  Expect(received.ok(), "reply decodes");
  if (!received.ok()) return 1;
  const std::vector<core::RankedPoi> good = received->neighbors;
  Expect(good.size() == 10, "ten neighbours");
  Expect(perfbench::ReplyMatchesOracle(expected, good), "correct reply accepted");

  std::vector<core::RankedPoi> bad = good;
  bad[3].distance = std::bit_cast<double>(std::bit_cast<uint64_t>(bad[3].distance) ^ 1u);
  Expect(!perfbench::ReplyMatchesOracle(expected, bad), "one flipped distance bit rejected");

  bad = good;
  bad[0].position.y = std::bit_cast<double>(std::bit_cast<uint64_t>(bad[0].position.y) ^ 1u);
  Expect(!perfbench::ReplyMatchesOracle(expected, bad), "flipped position bit rejected");

  bad = good;
  bad[9].id += 1;
  Expect(!perfbench::ReplyMatchesOracle(expected, bad), "wrong id rejected");

  bad = good;
  bad.pop_back();
  Expect(!perfbench::ReplyMatchesOracle(expected, bad), "missing neighbour rejected");


  std::printf("oracle_test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}
