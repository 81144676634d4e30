// Abstract interpreter over verified micro-op streams: per-function
// worst-case bounds and the admission verdict built on them.
//
// The lattice is deliberately small (doc/analysis.md): per function we
// track four scalars ordered by "more permissive" — min fuel / min frames
// (lower bounds over completing paths, computed as shortest / bottleneck
// paths over the exact edge charges the verifier extracted) and worst fuel
// / max frames (upper bounds over all paths, finite only when the
// control-flow graph and the reachable call graph are acyclic and free of
// indirect calls; kUnbounded is the lattice top). Interprocedural values
// reach a fixpoint in at most one pass per call-graph level: min-bounds
// iterate to stability (they only ever decrease), max-bounds recurse with
// an on-stack marker so any call cycle collapses to kUnbounded.
#include <algorithm>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analysis.h"
#include "analysis/stream_graph.h"
#include "wasm/module.h"

namespace waran::analysis {

namespace {

using internal::Node;
using internal::StreamGraph;
using internal::TakenEdge;

uint64_t sat_add(uint64_t a, uint64_t b) {
  if (a == kUnbounded || b == kUnbounded) return kUnbounded;
  return (a > kUnbounded - b) ? kUnbounded : a + b;
}

/// True when the function's own (reachable) control-flow graph has a cycle.
bool has_local_cycle(const StreamGraph& g) {
  enum : uint8_t { kWhite, kGrey, kBlack };
  std::vector<uint8_t> color(g.nodes.size(), kWhite);
  // Iterative DFS: (node, next-edge-cursor); cursor spans taken edges then
  // the fall-through edge.
  std::vector<std::pair<uint32_t, uint32_t>> stack;
  stack.emplace_back(0, 0);
  color[0] = kGrey;
  while (!stack.empty()) {
    auto& [i, cursor] = stack.back();
    const Node& nd = g.nodes[i];
    const uint32_t n_taken = static_cast<uint32_t>(nd.taken.size());
    uint32_t next = UINT32_MAX;
    while (cursor < n_taken + (nd.falls_through ? 1u : 0u)) {
      const uint32_t c = cursor++;
      if (c < n_taken) {
        if (nd.taken[c].ret) continue;
        next = nd.taken[c].to;
      } else {
        next = i + 1;
      }
      break;
    }
    if (next == UINT32_MAX) {
      color[i] = kBlack;
      stack.pop_back();
      continue;
    }
    if (color[next] == kGrey) return true;
    if (color[next] == kWhite) {
      color[next] = kGrey;
      stack.emplace_back(next, 0);
    }
  }
  return false;
}

/// Shortest-path fuel from entry to any frame-popping exit, with the
/// current interprocedural estimates for callees. kUnbounded: no path
/// completes under those estimates.
uint64_t min_fuel_pass(const StreamGraph& g, const wasm::Module& m,
                       const std::vector<uint64_t>& callee_min) {
  const size_t n = g.nodes.size();
  std::vector<uint64_t> dist(n, kUnbounded);
  using Item = std::pair<uint64_t, uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[0] = 0;
  pq.emplace(0, 0);
  uint64_t best = kUnbounded;
  while (!pq.empty()) {
    auto [d, i] = pq.top();
    pq.pop();
    if (d != dist[i]) continue;
    if (d >= best) break;  // every remaining label is no better
    const Node& nd = g.nodes[i];
    auto relax = [&](uint32_t to, uint64_t nd_cost) {
      const uint64_t v = sat_add(d, nd_cost);
      if (v < dist[to]) {
        dist[to] = v;
        pq.emplace(v, to);
      }
    };
    if (nd.is_return) best = std::min(best, d);
    for (const TakenEdge& e : nd.taken) {
      if (e.ret) {
        best = std::min(best, d);
      } else {
        relax(e.to, e.charge);
      }
    }
    if (nd.falls_through) {
      uint64_t cost = nd.fall_charge;
      if (nd.is_call_wasm) {
        // Execution only resumes if the callee completes; its cheapest
        // completion is charged on the resume edge.
        cost = sat_add(cost, callee_min[nd.callee - m.num_imported_funcs]);
      }
      // Indirect calls and host calls charge nothing statically (sound
      // lower bound: the target may be a host function).
      if (cost != kUnbounded) relax(i + 1, cost);
    }
  }
  return best;
}

/// Bottleneck path: the minimum over completing paths of the peak frame
/// depth, given current estimates of callee frame needs. The function's
/// own frame counts 1; crossing a call-resume edge needs 1 + frames(callee).
uint64_t min_frames_pass(const StreamGraph& g, const wasm::Module& m,
                         const std::vector<uint64_t>& callee_frames) {
  const size_t n = g.nodes.size();
  std::vector<uint64_t> label(n, kUnbounded);
  using Item = std::pair<uint64_t, uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  label[0] = 1;
  pq.emplace(1, 0);
  uint64_t best = kUnbounded;
  while (!pq.empty()) {
    auto [d, i] = pq.top();
    pq.pop();
    if (d != label[i]) continue;
    if (d >= best) break;
    const Node& nd = g.nodes[i];
    auto relax = [&](uint32_t to, uint64_t edge_need) {
      const uint64_t v = std::max(d, edge_need);
      if (v < label[to]) {
        label[to] = v;
        pq.emplace(v, to);
      }
    };
    if (nd.is_return) best = std::min(best, d);
    for (const TakenEdge& e : nd.taken) {
      if (e.ret) {
        best = std::min(best, d);
      } else {
        relax(e.to, 1);
      }
    }
    if (nd.falls_through) {
      uint64_t need = 1;
      if (nd.is_call_wasm) {
        need = sat_add(1, callee_frames[nd.callee - m.num_imported_funcs]);
      }
      // Indirect call: the target may be a host import, which pushes no
      // wasm frame — 1 stays the sound lower bound.
      if (need != kUnbounded) relax(i + 1, need);
    }
  }
  return best;
}

/// Longest-path fuel over an acyclic graph (trapping paths included);
/// callee worst costs already resolved by the caller. Pre: no local cycle.
uint64_t worst_fuel_dag(const StreamGraph& g, const wasm::Module& m,
                        const std::vector<uint64_t>& callee_worst) {
  const size_t n = g.nodes.size();
  constexpr uint64_t kUnset = UINT64_MAX - 1;
  std::vector<uint64_t> memo(n, kUnset);
  // Iterative postorder (graph is a DAG: the verifier's reachability plus
  // has_local_cycle() == false).
  std::vector<std::pair<uint32_t, bool>> stack{{0, false}};
  while (!stack.empty()) {
    auto [i, expanded] = stack.back();
    stack.pop_back();
    if (memo[i] != kUnset && !expanded) continue;
    const Node& nd = g.nodes[i];
    if (!expanded) {
      stack.emplace_back(i, true);
      for (const TakenEdge& e : nd.taken) {
        if (!e.ret && memo[e.to] == kUnset) stack.emplace_back(e.to, false);
      }
      if (nd.falls_through && memo[i + 1] == kUnset) {
        stack.emplace_back(i + 1, false);
      }
      continue;
    }
    uint64_t w = 0;  // kReturn / kUnreachable / ret edges end the path here
    for (const TakenEdge& e : nd.taken) {
      if (e.ret) continue;
      w = std::max(w, sat_add(e.charge, memo[e.to]));
    }
    if (nd.falls_through) {
      uint64_t cost = nd.fall_charge;
      if (nd.is_call_wasm) {
        cost = sat_add(cost, callee_worst[nd.callee - m.num_imported_funcs]);
      }
      if (nd.is_call_indirect) cost = kUnbounded;  // statically unknown callee
      w = std::max(w, sat_add(cost, memo[i + 1]));
    }
    memo[i] = w;
  }
  return memo[0];
}

}  // namespace

Result<ModuleAnalysis> analyze(const wasm::Module& m, const wasm::TranslatedModule& tm) {
  WARAN_CHECK_OK(verify_module(m, tm));
  const size_t nf = tm.funcs.size();
  std::vector<StreamGraph> graphs(nf);
  for (size_t i = 0; i < nf; ++i) {
    WARAN_CHECK_OK(internal::build_stream_graph(m, tm.funcs[i], &graphs[i]));
  }

  ModuleAnalysis out;
  out.funcs.resize(nf);
  std::vector<bool> local_cycle(nf);
  for (size_t i = 0; i < nf; ++i) local_cycle[i] = has_local_cycle(graphs[i]);

  // Min bounds: iterate to a fixpoint — estimates start at kUnbounded and
  // only decrease, so one pass per call-graph level converges.
  std::vector<uint64_t> min_fuel(nf, kUnbounded);
  std::vector<uint64_t> min_frames(nf, kUnbounded);
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t i = 0; i < nf; ++i) {
      const uint64_t f = min_fuel_pass(graphs[i], m, min_fuel);
      if (f < min_fuel[i]) {
        min_fuel[i] = f;
        changed = true;
      }
      const uint64_t fr = min_frames_pass(graphs[i], m, min_frames);
      if (fr < min_frames[i]) {
        min_frames[i] = fr;
        changed = true;
      }
    }
  }

  // Max bounds + may-loop: memoized recursion over the call graph; an
  // on-stack callee means a call cycle, which is kUnbounded by definition.
  enum class VState : uint8_t { kNew, kOnStack, kDone };
  std::vector<VState> state(nf, VState::kNew);
  std::vector<uint64_t> worst_fuel(nf), max_frames(nf), frame_cells(nf);
  std::vector<bool> may_loop(nf);
  std::function<void(size_t)> solve = [&](size_t i) {
    if (state[i] == VState::kDone) return;
    state[i] = VState::kOnStack;
    bool loop = local_cycle[i];
    uint64_t frames = 1;
    uint64_t callee_cells = 0;
    bool callee_worst_unbounded = false;
    std::vector<uint64_t> callee_worst(nf, kUnbounded);
    for (const Node& nd : graphs[i].nodes) {
      if (!nd.reachable) continue;
      if (nd.is_call_indirect) {
        frames = kUnbounded;
        callee_worst_unbounded = true;
        continue;
      }
      if (!nd.is_call_wasm) continue;
      const size_t c = nd.callee - m.num_imported_funcs;
      if (state[c] == VState::kOnStack) {  // recursion
        frames = kUnbounded;
        callee_worst_unbounded = true;
        continue;
      }
      solve(c);
      loop = loop || may_loop[c];
      frames = std::max(frames, sat_add(1, max_frames[c]));
      callee_cells = std::max(callee_cells, frame_cells[c]);
      if (worst_fuel[c] == kUnbounded) callee_worst_unbounded = true;
      callee_worst[c] = worst_fuel[c];
    }
    may_loop[i] = loop;
    max_frames[i] = frames;
    frame_cells[i] = frames != kUnbounded
                         ? sat_add(tm.funcs[i].frame_cells, callee_cells)
                         : kUnbounded;
    worst_fuel[i] = (loop || callee_worst_unbounded)
                        ? kUnbounded
                        : worst_fuel_dag(graphs[i], m, callee_worst);
    state[i] = VState::kDone;
  };
  for (size_t i = 0; i < nf; ++i) solve(i);

  for (size_t i = 0; i < nf; ++i) {
    out.funcs[i].min_fuel = min_fuel[i];
    out.funcs[i].min_frames = min_frames[i];
    out.funcs[i].worst_fuel = worst_fuel[i];
    out.funcs[i].max_frames = max_frames[i];
    out.funcs[i].max_frame_cells = frame_cells[i];
    out.funcs[i].may_loop = may_loop[i];
  }
  return out;
}

namespace {

std::string bound_str(uint64_t v) {
  return v == kUnbounded ? "unbounded" : std::to_string(v);
}

}  // namespace

std::string AdmissionReport::reject_reason() const {
  if (!verified) return "stream verification failed: " + verifier_error;
  for (const ExportReport& e : exports) {
    if (!e.violations.empty()) {
      return "export '" + e.name + "': " + e.violations.front();
    }
  }
  return {};
}

std::string AdmissionReport::summary() const {
  std::string s = "admission: ";
  s += admitted ? "ACCEPT" : "REJECT";
  s += " (fuel budget ";
  s += limits.fuel_per_call == 0 ? "unmetered" : std::to_string(limits.fuel_per_call);
  s += ", call depth " + std::to_string(limits.max_call_depth) + ")\n";
  if (!verified) {
    s += "  stream verification failed: " + verifier_error + "\n";
    return s;
  }
  for (const ExportReport& e : exports) {
    const FuncBounds& b = e.bounds;
    s += "  export " + e.name + " (func " + std::to_string(e.func_index) + "): ";
    s += "cells " + bound_str(b.max_frame_cells);
    s += ", frames [" + bound_str(b.min_frames) + ", " + bound_str(b.max_frames) + "]";
    s += ", fuel [" + bound_str(b.min_fuel) + ", " + bound_str(b.worst_fuel) + "]";
    s += b.may_loop ? ", may loop" : ", loop-free";
    s += "\n";
    for (const std::string& v : e.violations) s += "    ! " + v + "\n";
  }
  return s;
}

AdmissionReport admit(const wasm::Module& m, const wasm::TranslatedModule& tm,
                      const AdmissionLimits& limits) {
  AdmissionReport report;
  report.limits = limits;
  Result<ModuleAnalysis> ana = analyze(m, tm);
  if (!ana.ok()) {
    report.verified = false;
    report.admitted = false;
    report.verifier_error = ana.error().message;
    return report;
  }
  report.verified = true;
  bool ok = true;
  for (const wasm::Export& e : m.exports) {
    if (e.kind != wasm::ImportKind::kFunc) continue;
    if (e.index < m.num_imported_funcs) continue;  // re-exported host import
    ExportReport er;
    er.name = e.name;
    er.func_index = e.index;
    er.bounds = ana->funcs[e.index - m.num_imported_funcs];
    const FuncBounds& b = er.bounds;
    // Sound rejections only: each violation means every call MUST fail.
    if (!b.completes()) {
      er.violations.push_back("no statically completing path (every path loops or traps)");
    } else if (limits.fuel_per_call > 0 && b.min_fuel > limits.fuel_per_call) {
      er.violations.push_back("needs at least " + std::to_string(b.min_fuel) +
                              " fuel to complete, budget is " +
                              std::to_string(limits.fuel_per_call));
    }
    if (b.min_frames != kUnbounded && b.min_frames > limits.max_call_depth) {
      er.violations.push_back("needs call depth " + std::to_string(b.min_frames) +
                              ", engine limit is " +
                              std::to_string(limits.max_call_depth));
    }
    ok = ok && er.violations.empty();
    report.exports.push_back(std::move(er));
  }
  report.admitted = ok;
  return report;
}

}  // namespace waran::analysis
