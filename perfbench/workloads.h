// The benchmark's two workloads. Each runs in one call: set-up, a timed
// window of `args.seconds`, then the correctness oracle outside the window,
// and — with args.trace — a per-layer replay through each layer's public
// entry points.
#pragma once

#include <vector>

#include "report.h"
#include "src/core/server.h"

namespace perfbench {

/// serve_hotspot_batch: an in-process rpc::Server over loopback TCP, driven
/// by one client thread multiplexing 4 connections.
Report RunServe(const RunArgs& args);

/// sim_la_road: the in-process Simulator on the road network.
Report RunSim(const RunArgs& args);

/// The serve oracle, exposed for the self-test: the first reply received for
/// a request must equal the sequential SpatialServer::QueryKnn answer bit
/// for bit. Returns false on any difference.
bool ReplyMatchesOracle(const senn::core::ServerReply& expected,
                        const std::vector<senn::core::RankedPoi>& received);

}  // namespace perfbench
