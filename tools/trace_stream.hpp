#pragma once
// Shared input plumbing for the deployable CLIs (vermemd, vermemlint):
// loading trace sources from files or a multi-trace stdin stream
// (traces separated by "---" lines), splitting out "wo " write-order
// lines, and minimal JSON string escaping for the one-line-per-trace
// output format.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.hpp"

namespace vermem::tools {

// JSON string helpers now live in support/json.hpp, shared with
// vermemcert; re-exported here for the emitters in this layer.
using vermem::json_escape;

/// One trace's text, split into execution directives and write-order
/// ("wo ...") lines, plus a display tag (file name or stdin[i]).
struct TraceSource {
  std::string tag;
  std::string execution_text;
  std::string write_order_text;
};

/// Each "wo" line leaves an empty line behind in execution_text (the
/// trace parser skips blank lines), so parse errors keep the line
/// numbers of the original text.
inline void split_wo_lines(const std::string& text, TraceSource& out) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("wo ", 0) == 0 || line == "wo") {
      out.write_order_text += line;
      out.write_order_text += '\n';
    } else {
      out.execution_text += line;
    }
    out.execution_text += '\n';
  }
}

/// Splits an already-read multi-trace text stream (traces separated by
/// "---" lines) into sources tagged "<tag_prefix>[i]".
inline void split_concatenated_sources(const std::string& all,
                                       const std::string& tag_prefix,
                                       std::vector<TraceSource>& sources) {
  std::size_t count = 0;
  std::istringstream lines(all);
  std::string line;
  std::string chunk;
  auto flush = [&] {
    if (chunk.find_first_not_of(" \t\r\n") == std::string::npos) {
      chunk.clear();
      return;
    }
    TraceSource current;
    current.tag = tag_prefix + "[" + std::to_string(count++) + "]";
    split_wo_lines(chunk, current);
    sources.push_back(std::move(current));
    chunk.clear();
  };
  while (std::getline(lines, line)) {
    if (line.find_first_not_of('-') == std::string::npos && line.size() >= 3) {
      flush();
    } else {
      chunk += line;
      chunk += '\n';
    }
  }
  flush();
}

/// Loads sources from the given paths, or from stdin when `paths` is
/// empty (splitting the stream into traces on "---" separator lines).
/// On an unreadable file prints a message to stderr and returns false.
inline bool load_trace_sources(const std::vector<std::string>& paths,
                               std::vector<TraceSource>& sources) {
  if (paths.empty()) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    split_concatenated_sources(buffer.str(), "stdin", sources);
    return true;
  }
  for (const std::string& path : paths) {
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return false;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    TraceSource source;
    source.tag = path;
    split_wo_lines(buffer.str(), source);
    sources.push_back(std::move(source));
  }
  return true;
}

inline bool parse_size_arg(const std::string& arg, std::size_t prefix_len,
                           std::size_t& out) {
  try {
    out = static_cast<std::size_t>(std::stoull(arg.substr(prefix_len)));
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace vermem::tools
