// vermemlint: standalone static trace linter. Runs the analysis
// subsystem (Figure 5.3 fragment classification + the W/I rule catalog,
// see docs/ANALYSIS.md) over recorded traces WITHOUT deciding
// coherence: a static pass suitable as a pre-submit gate in a
// trace-collection pipeline or a CI check on trace corpora.
//
// Usage:
//   vermemlint [--format=text|json|sarif] [--no-info] [--version] [FILE...]
//
// Input conventions match vermemd: each FILE is one trace, either
// text_io format (with optional "wo " write-order lines) or a binary
// VMTB trace — auto-detected by the "VMTB" magic, per file and on
// stdin. With no FILE, text stdin may hold several traces separated by
// "---" lines; binary stdin is one trace.
//
// --format=text (default) prints compiler-style
// "tag: severity rule: message" lines. --format=json emits one JSON
// object per trace: the same "analysis" shape vermemd --analyze embeds
// (fragments per address, diagnostics with rule ID/severity/op
// location). --format=sarif emits one SARIF 2.1.0 document for the
// whole invocation (results carry the trace tag as the artifact URI).
// --json/--text remain as aliases. --no-info suppresses informational
// (I-rule) diagnostics in text and SARIF output.
//
// Exit codes:
//   0  no warning-severity rule fired on any trace
//   1  at least one warning-severity diagnostic (W001..W006)
//   2  usage or parse error

#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis_json.hpp"
#include "support/format.hpp"
#include "trace/binary_io.hpp"
#include "trace/text_io.hpp"
#include "trace_stream.hpp"

namespace {

using namespace vermem;

enum class Format : std::uint8_t { kText, kJson, kSarif };

int usage() {
  std::fprintf(stderr,
               "usage: vermemlint [--format=text|json|sarif] [--no-info] "
               "[--version] [FILE...]\n");
  return 2;
}

/// Lint output for earlier traces may already sit in stdio buffers when
/// a later trace fails to parse; flush so a piped consumer keeps it.
int fatal_exit() {
  std::fflush(stdout);
  return 2;
}

void print_text(const std::string& tag,
                const analysis::AnalysisReport& report, bool show_info) {
  for (const analysis::AddressAnalysis& address : report.addresses) {
    for (const analysis::Diagnostic& diagnostic : address.diagnostics) {
      if (!show_info && diagnostic.severity == analysis::Severity::kInfo)
        continue;
      std::string where = tag + ": addr " + std::to_string(diagnostic.addr);
      if (diagnostic.location)
        where += " P" + std::to_string(diagnostic.location->process) + "#" +
                 std::to_string(diagnostic.location->index);
      std::printf("%s: %s %s [%s]: %s\n", where.c_str(),
                  to_string(diagnostic.severity), rule_code(diagnostic.rule),
                  rule_name(diagnostic.rule), diagnostic.message.c_str());
    }
  }
}

/// One SARIF result: a diagnostic plus the trace it came from.
struct SarifResult {
  analysis::Diagnostic diagnostic;
  std::string trace;
};

std::string sarif_document(const std::vector<SarifResult>& results) {
  constexpr analysis::RuleId kCatalog[] = {
      analysis::RuleId::kDuplicateValueWrite,
      analysis::RuleId::kUnreadWrite,
      analysis::RuleId::kRmwAtomicityCandidate,
      analysis::RuleId::kInconsistentWriteOrderLog,
      analysis::RuleId::kUnorderedWritePair,
      analysis::RuleId::kSaturationContradictedLog,
      analysis::RuleId::kFragmentClassification,
  };
  std::string out =
      "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\","
      "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
      "\"name\":\"vermemlint\",\"version\":\"";
  out.append(kVermemVersion.data(), kVermemVersion.size());
  out += "\",\"rules\":[";
  bool first = true;
  for (const analysis::RuleId rule : kCatalog) {
    if (!first) out += ",";
    first = false;
    out += "{\"id\":\"";
    out += rule_code(rule);
    out += "\",\"name\":\"";
    out += rule_name(rule);
    out += "\"}";
  }
  out += "]}},\"results\":[";
  first = true;
  for (const SarifResult& result : results) {
    const analysis::Diagnostic& d = result.diagnostic;
    if (!first) out += ",";
    first = false;
    out += "{\"ruleId\":\"";
    out += rule_code(d.rule);
    out += "\",\"level\":\"";
    out += d.severity == analysis::Severity::kWarning ? "warning" : "note";
    out += "\",\"message\":{\"text\":\"" + tools::json_escape(d.message) +
           "\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":"
           "{\"uri\":\"" +
           tools::json_escape(result.trace) + "\"}},\"logicalLocations\":[{"
           "\"fullyQualifiedName\":\"addr " + std::to_string(d.addr);
    if (d.location)
      out += " P" + std::to_string(d.location->process) + "#" +
             std::to_string(d.location->index);
    out += "\"}]}]}";
  }
  out += "]}]}";
  return out;
}

/// One input trace, parsed from either format into lintable form.
struct LintInput {
  std::string tag;
  Execution execution;
  vmc::WriteOrderMap orders;
  bool have_orders = false;
};

/// Parses one text-format trace source. Returns false after printing a
/// parse error.
bool parse_text_source(const tools::TraceSource& source,
                       std::vector<LintInput>& inputs) {
  ParseResult parsed = parse_execution(source.execution_text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: parse error at line %zu: %s\n",
                 source.tag.c_str(), parsed.line, parsed.error.c_str());
    return false;
  }
  LintInput input;
  input.tag = source.tag;
  input.execution = std::move(parsed.execution);
  if (!source.write_order_text.empty()) {
    WriteOrderParseResult parsed_orders = tools::parse_source_write_orders(source);
    if (!parsed_orders.ok()) {
      std::fprintf(stderr, "%s: write-order parse error at line %zu: %s\n",
                   source.tag.c_str(), parsed_orders.line,
                   parsed_orders.error.c_str());
      return false;
    }
    input.orders.insert(parsed_orders.orders.begin(),
                        parsed_orders.orders.end());
    input.have_orders = true;
  }
  inputs.push_back(std::move(input));
  return true;
}

/// Decodes one binary (VMTB) trace. Returns false after printing a
/// decode error.
bool parse_binary_source(const std::string& tag, const std::string& bytes,
                         std::vector<LintInput>& inputs) {
  BinaryParseResult parsed = decode_binary(bytes);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: binary decode error at byte %llu: %s\n",
                 tag.c_str(),
                 static_cast<unsigned long long>(parsed.byte_offset),
                 parsed.error.c_str());
    return false;
  }
  LintInput input;
  input.tag = tag;
  input.execution = std::move(parsed.execution);
  if (!parsed.write_orders.empty()) {
    input.orders.insert(parsed.write_orders.begin(),
                        parsed.write_orders.end());
    input.have_orders = true;
  }
  inputs.push_back(std::move(input));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Format format = Format::kText;
  bool show_info = true;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" || arg == "--format=json")
      format = Format::kJson;
    else if (arg == "--text" || arg == "--format=text")
      format = Format::kText;
    else if (arg == "--format=sarif")
      format = Format::kSarif;
    else if (arg == "--no-info")
      show_info = false;
    else if (arg == "--version") {
      std::printf("vermemlint %.*s\n", static_cast<int>(kVermemVersion.size()),
                  kVermemVersion.data());
      return 0;
    } else if (arg.rfind("--", 0) == 0)
      return usage();
    else
      paths.push_back(arg);
  }

  // Load and parse every input before emitting anything: a malformed
  // trace is a clean exit-2. Binary traces are auto-detected by their
  // "VMTB" magic, per file and on (whole) stdin, exactly like vermemd.
  std::vector<LintInput> inputs;
  if (paths.empty()) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    std::string all = buffer.str();
    if (looks_like_binary_trace(all)) {
      if (!parse_binary_source("stdin", all, inputs)) return fatal_exit();
    } else {
      std::vector<tools::TraceSource> split;
      tools::split_concatenated_sources(all, "stdin", split);
      for (const tools::TraceSource& source : split)
        if (!parse_text_source(source, inputs)) return fatal_exit();
    }
  } else {
    for (const std::string& path : paths) {
      std::ifstream file(path, std::ios::binary);
      if (!file) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return 2;
      }
      std::ostringstream buffer;
      buffer << file.rdbuf();
      std::string data = buffer.str();
      if (looks_like_binary_trace(data)) {
        if (!parse_binary_source(path, data, inputs)) return fatal_exit();
      } else {
        tools::TraceSource source;
        source.tag = path;
        tools::split_wo_lines(data, source);
        if (!parse_text_source(source, inputs)) return fatal_exit();
      }
    }
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "no traces to lint\n");
    return 2;
  }

  bool any_warning = false;
  std::vector<SarifResult> sarif_results;
  for (const LintInput& input : inputs) {
    const analysis::AnalysisReport report = analysis::analyze(
        input.execution, input.have_orders ? &input.orders : nullptr);
    if (report.has_warnings()) any_warning = true;
    switch (format) {
      case Format::kJson:
        std::printf("{\"trace\":\"%s\",\"analysis\":%s}\n",
                    tools::json_escape(input.tag).c_str(),
                    tools::analysis_json(report).c_str());
        break;
      case Format::kText:
        print_text(input.tag, report, show_info);
        break;
      case Format::kSarif:
        for (const analysis::AddressAnalysis& address : report.addresses)
          for (const analysis::Diagnostic& diagnostic : address.diagnostics) {
            if (!show_info &&
                diagnostic.severity == analysis::Severity::kInfo)
              continue;
            sarif_results.push_back({diagnostic, input.tag});
          }
        break;
    }
  }
  if (format == Format::kSarif)
    std::printf("%s\n", sarif_document(sarif_results).c_str());
  return any_warning ? 1 : 0;
}
