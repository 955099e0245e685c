#include "src/telemetry/trace.h"

namespace blockhead {

Tracer::Kind* Tracer::Intern(std::string_view name) {
  auto [it, inserted] = kinds_.try_emplace(std::string(name));
  if (inserted) {
    it->second.tracer = this;
    it->second.name = it->first;
  }
  return &it->second;
}

Tracer::Span Tracer::Start(Kind* kind, SimTime begin) {
  Span span;
  if (kind != nullptr) {
    span.kind_ = kind;
    span.begin_ = begin;
    span.start_ = kind->tracer->totals_;
  }
  return span;
}

void Tracer::Span::End(SimTime end) {
  if (kind_ == nullptr) {
    return;
  }
  Kind& k = *std::exchange(kind_, nullptr);
  const Tracer& tracer = *k.tracer;
  if (k.total == nullptr) {
    const std::string prefix = "span." + std::string(k.name);
    k.total = tracer.registry_->GetHistogram(prefix + ".total_ns");
    k.queue = tracer.registry_->GetHistogram(prefix + ".queue_ns");
    k.gc = tracer.registry_->GetHistogram(prefix + ".gc_ns");
    k.flash = tracer.registry_->GetHistogram(prefix + ".flash_ns");
    k.host = tracer.registry_->GetHistogram(prefix + ".host_ns");
  }
  const SimTime queue = tracer.totals_.queue_ns - start_.queue_ns;
  const SimTime gc = tracer.totals_.gc_ns - start_.gc_ns;
  const SimTime flash = tracer.totals_.flash_ns - start_.flash_ns;
  const SimTime total = end > begin_ ? end - begin_ : 0;
  const SimTime attributed = queue + gc + flash;
  k.total->Record(total);
  k.queue->Record(queue);
  k.gc->Record(gc);
  k.flash->Record(flash);
  k.host->Record(total > attributed ? total - attributed : 0);
  tracer.timeline_->RecordSpan(k.name, begin_, end);
}

void Tracer::Span::Abandon() {
  if (kind_ == nullptr) {
    return;
  }
  Kind& k = *std::exchange(kind_, nullptr);
  if (k.abandoned == nullptr) {
    k.abandoned = k.tracer->registry_->GetCounter("span." + std::string(k.name) + ".abandoned");
  }
  k.abandoned->Add(1);
}

}  // namespace blockhead
