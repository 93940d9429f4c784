// trace_doctor: command-line verifier for recorded memory traces.
//
// Reads a trace in the vermem text format (see trace/text_io.hpp) and
// checks it against a consistency requirement. This is the tool a
// hardware or simulator team would actually point at their logs.
//
// Usage:
//   trace_doctor [--model=coherence|sc|tso|pso] [--sat]
//                [--write-order=WOFILE] [FILE]
//
// With no FILE, reads stdin. Coherence is decided per address by the
// analysis router (analysis::verify_coherence_routed). --sat routes
// single-address coherence through the CNF encoder + CDCL solver
// instead; --write-order supplies the memory system's recorded
// per-address write serialization (format: "wo <addr> <proc>:<index>
// ..."), switching coherence checking to the polynomial Section 5.2
// path. "wo" lines inside the trace itself are honoured the same way,
// as vermemd does.
// Exit code: 0 verified, 1 violation found, 2 undecided/usage error.
//
// Try:  ./build/examples/trace_doctor --model=sc <<'EOF'
//       P: W(0,1) W(1,1)
//       P: R(1,1) R(0,0)
//       EOF

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "analysis/router.hpp"
#include "encode/vmc_to_cnf.hpp"
#include "models/checker.hpp"
#include "tools/trace_stream.hpp"
#include "trace/address_index.hpp"
#include "trace/stats.hpp"
#include "trace/text_io.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: trace_doctor [--model=coherence|sc|tso|pso] [--sat] "
               "[--write-order=WOFILE] [FILE]\n");
  return 2;
}

bool read_file(const std::string& path, std::string& text) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  text = buffer.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vermem;

  std::string model = "coherence";
  bool use_sat = false;
  std::string path;
  std::string write_order_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--model=", 0) == 0)
      model = arg.substr(8);
    else if (arg == "--sat")
      use_sat = true;
    else if (arg.rfind("--write-order=", 0) == 0)
      write_order_path = arg.substr(14);
    else if (arg.rfind("--", 0) == 0)
      return usage();
    else
      path = arg;
  }

  std::string text;
  if (path.empty()) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else if (!read_file(path, text)) {
    return 2;
  }
  // Inline "wo" lines are the trace's own write-order log; a
  // --write-order file adds to it.
  tools::TraceSource source;
  tools::split_wo_lines(text, source);
  std::string file_orders_text;
  if (!write_order_path.empty() && !read_file(write_order_path, file_orders_text))
    return 2;

  const ParseResult parsed = parse_execution(source.execution_text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error at line %zu: %s\n", parsed.line,
                 parsed.error.c_str());
    return 2;
  }
  const Execution& exec = parsed.execution;
  std::printf("%s\n", summarize(compute_stats(exec)).c_str());

  // Each log is parsed on its own, so an error names its line in the
  // trace or in the --write-order file.
  WriteOrderParseResult orders = tools::parse_source_write_orders(source);
  if (!orders.ok()) {
    std::fprintf(stderr, "write-order parse error at line %zu: %s\n",
                 orders.line, orders.error.c_str());
    return 2;
  }
  const WriteOrderParseResult file_orders = parse_write_orders(file_orders_text);
  if (!file_orders.ok()) {
    std::fprintf(stderr, "%s: write-order parse error at line %zu: %s\n",
                 write_order_path.c_str(), file_orders.line,
                 file_orders.error.c_str());
    return 2;
  }
  for (const auto& [addr, order] : file_orders.orders) {
    auto& merged = orders.orders[addr];
    merged.insert(merged.end(), order.begin(), order.end());
  }
  const bool has_orders =
      !source.write_order_text.empty() || !file_orders_text.empty();

  vmc::Verdict verdict;
  std::string detail;
  if (model == "coherence" && use_sat && !has_orders) {
    verdict = vmc::Verdict::kCoherent;
    for (const Addr addr : exec.addresses()) {
      const auto result = encode::check_via_sat(
          vmc::VmcInstance::from_execution(exec, addr));
      if (result.verdict != vmc::Verdict::kCoherent) {
        verdict = result.verdict;
        detail = "address " + std::to_string(addr) + ": " + result.reason();
        break;
      }
    }
  } else if (model == "coherence") {
    const vmc::WriteOrderMap write_orders(orders.orders.begin(),
                                          orders.orders.end());
    const AddressIndex index(exec);
    const auto report =
        analysis::verify_coherence_routed(index,
                                          has_orders ? &write_orders : nullptr)
            .report;
    verdict = report.verdict;
    if (const auto* violation = report.first_violation())
      detail = "address " + std::to_string(violation->addr) + ": " +
               violation->result.reason();
  } else {
    models::Model m;
    if (model == "sc")
      m = models::Model::kSc;
    else if (model == "tso")
      m = models::Model::kTso;
    else if (model == "pso")
      m = models::Model::kPso;
    else
      return usage();
    const auto result = models::check_model(exec, m);
    verdict = result.verdict;
    detail = result.reason();
  }

  switch (verdict) {
    case vmc::Verdict::kCoherent:
      std::printf("VERIFIED under %s%s\n", model.c_str(),
                  use_sat ? " (via SAT)" : "");
      return 0;
    case vmc::Verdict::kIncoherent:
      std::printf("VIOLATION under %s: %s\n", model.c_str(), detail.c_str());
      return 1;
    case vmc::Verdict::kUnknown:
      std::printf("UNDECIDED: %s\n", detail.c_str());
      return 2;
  }
  return 2;
}
