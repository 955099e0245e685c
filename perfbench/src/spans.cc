#include "spans.h"

#include <fstream>

namespace perfbench {

const char* SpanNameString(SpanName name) {
  static constexpr const char* kNames[] = {
      "ftl.read",   "ftl.write",  "ftl.trim",    "hostftl.read", "hostftl.write", "hostftl.trim",
      "hostftl.pump", "env.create", "env.append", "env.read",     "env.sync",      "env.delete",
      "env.query",  "env.maintain", "kv.put",    "kv.get",       "kv.scan",
  };
  static_assert(std::size(kNames) == static_cast<std::size_t>(SpanName::kCount));
  return kNames[static_cast<std::size_t>(name)];
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "index,name,start_ns,end_ns,parent,gc\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << SpanNameString(s.name) << ',' << (s.start_ns - base) << ','
        << (s.end_ns - base) << ',' << s.parent << ',' << (s.flagged ? 1 : 0) << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
