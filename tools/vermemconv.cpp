// vermemconv: convert traces between the text format (text_io,
// docs/TRACE_FORMAT.md) and the binary streaming format (binary_io,
// docs/FORMATS.md).
//
// Usage:
//   vermemconv [--to-text|--to-binary] [-o FILE] [FILE]
//
// Reads FILE (or stdin) whole, auto-detects the input format by the
// "VMTB" magic, and writes the other format to stdout (or -o FILE).
// --to-text / --to-binary force the *output* format instead; forcing
// the format the input already has canonicalizes it (parse + re-emit),
// which is how CI pins the byte-identical round-trip: both directions
// re-serialize deterministically, so
//
//   vermemconv --to-binary t.txt | vermemconv --to-text
//
// reproduces the canonical text form byte for byte.
//
// Text input may carry "wo " write-order lines; they travel through the
// binary write-order section and come back as "wo " lines. The ordered
// flag of a binary input survives text round-trips only if the event
// order is canonical (per-process blocks); vermemconv prints a warning
// when converting an ordered binary trace to text, because the text
// format cannot represent an interleaving.
//
// Exit codes: 0 converted, 2 usage/parse/io error.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "trace/binary_io.hpp"
#include "trace/text_io.hpp"
#include "trace_stream.hpp"

namespace {

using namespace vermem;

int usage() {
  std::fprintf(stderr,
               "usage: vermemconv [--to-text|--to-binary] [-o FILE] [FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Target : std::uint8_t { kAuto, kText, kBinary };
  Target target = Target::kAuto;
  std::string out_path;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--to-text")
      target = Target::kText;
    else if (arg == "--to-binary")
      target = Target::kBinary;
    else if (arg == "-o") {
      if (i + 1 >= argc) return usage();
      out_path = argv[++i];
    } else if (arg.rfind("-o", 0) == 0 && arg.size() > 2)
      out_path = arg.substr(2);
    else if (arg.rfind("--", 0) == 0)
      return usage();
    else
      paths.push_back(arg);
  }
  if (paths.size() > 1) return usage();

  std::string input;
  if (paths.empty()) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    input = buffer.str();
  } else {
    std::ifstream file(paths[0], std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", paths[0].c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    input = buffer.str();
  }
  const std::string input_tag = paths.empty() ? "stdin" : paths[0];

  // Normalize to (execution, write orders) regardless of input format.
  Execution execution;
  WriteOrderLog orders;
  const bool input_binary = looks_like_binary_trace(input);
  if (input_binary) {
    BinaryParseResult parsed = decode_binary(input);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: binary decode error at byte %llu: %s\n",
                   input_tag.c_str(),
                   static_cast<unsigned long long>(parsed.byte_offset),
                   parsed.error.c_str());
      return 2;
    }
    if (parsed.ordered && target != Target::kBinary)
      std::fprintf(stderr,
                   "%s: note: dropping the ordered-stream flag (the text "
                   "format cannot represent an event interleaving)\n",
                   input_tag.c_str());
    execution = std::move(parsed.execution);
    orders = std::move(parsed.write_orders);
  } else {
    tools::TraceSource source;
    tools::split_wo_lines(input, source);
    ParseResult parsed = parse_execution(source.execution_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: parse error at line %zu: %s\n",
                   input_tag.c_str(), parsed.line, parsed.error.c_str());
      return 2;
    }
    execution = std::move(parsed.execution);
    if (!source.write_order_text.empty()) {
      WriteOrderParseResult wo = tools::parse_source_write_orders(source);
      if (!wo.ok()) {
        std::fprintf(stderr, "%s: write-order parse error at line %zu: %s\n",
                     input_tag.c_str(), wo.line, wo.error.c_str());
        return 2;
      }
      orders = std::move(wo.orders);
    }
  }

  const bool to_binary = target == Target::kBinary ||
                         (target == Target::kAuto && !input_binary);
  std::string output;
  if (to_binary) {
    output = encode_binary(execution, orders.empty() ? nullptr : &orders);
  } else {
    output = serialize_execution(execution);
    output += serialize_write_orders(orders);
  }

  if (out_path.empty()) {
    std::fwrite(output.data(), 1, output.size(), stdout);
    if (std::fflush(stdout) != 0) {
      std::fprintf(stderr, "write error on stdout\n");
      return 2;
    }
    return 0;
  }
  std::ofstream out(out_path, std::ios::binary);
  out.write(output.data(), static_cast<std::streamsize>(output.size()));
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  return 0;
}
