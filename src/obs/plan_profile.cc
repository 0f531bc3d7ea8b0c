#include "obs/plan_profile.h"

#include <cstdio>

namespace jsontiles::obs {

namespace {

std::string FormatMillis(uint64_t nanos) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f ms",
                static_cast<double>(nanos) / 1e6);
  return buf;
}

}  // namespace

std::string PlanProfile::FormatTree() const {
  std::string out;
  if (root_ < 0) return out;
  // Iterative pre-order walk; the plan tree is tiny.
  struct Frame {
    int id;
    int depth;
  };
  std::vector<Frame> stack = {{root_, 0}};
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    const OperatorStats& op = ops_[static_cast<size_t>(frame.id)];
    if (frame.depth > 0) {
      out.append(static_cast<size_t>(frame.depth - 1) * 3 + 2, ' ');
      out += "-> ";
    }
    out += op.name;
    if (!op.detail.empty()) out += " " + op.detail;
    out += "  (";
    if (op.rows_in > 0 || op.children.empty() == false) {
      out += "rows in=" + std::to_string(op.rows_in) + ", ";
    }
    out += "rows out=" + std::to_string(op.rows_out) + ", " +
           FormatMillis(op.wall_nanos) + ")";
    if (!op.counters.empty()) {
      out += " [";
      for (size_t i = 0; i < op.counters.size(); i++) {
        if (i > 0) out += " ";
        out += op.counters[i].first + "=" + std::to_string(op.counters[i].second);
      }
      out += "]";
    }
    out += "\n";
    // Push children in reverse so the first child prints first.
    for (size_t i = op.children.size(); i-- > 0;) {
      stack.push_back({op.children[i], frame.depth + 1});
    }
  }
  return out;
}

}  // namespace jsontiles::obs
