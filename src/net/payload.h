// Type-erased message payload.
//
// The real AQuA stack ships marshalled CORBA messages over Maestro; here
// the transport is payload-agnostic and the "marshalling" is a declared
// wire size that feeds the LAN's per-byte delay model. Multicast fan-out
// shares one immutable body, so cloning a payload per destination is a
// shared_ptr copy. A body costs one allocation: the shared_ptr control
// block and the typed body live in one make_shared block.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <typeinfo>
#include <utility>

#include "common/assert.h"
#include "obs/span.h"

namespace aqua::net {

class Payload {
 public:
  Payload() = default;

  /// Wrap `body` with a declared wire size in bytes (>= 0).
  template <typename T>
  static Payload make(T body, std::int64_t wire_bytes) {
    AQUA_REQUIRE(wire_bytes >= 0, "wire size must be non-negative");
    Payload p;
    p.body_ = std::make_shared<const Body<std::remove_cv_t<T>>>(std::move(body));
    p.wire_bytes_ = wire_bytes;
    return p;
  }

  /// Pointer to the body if it holds exactly a T (as std::any_cast
  /// decides: no conversions, cv-qualifiers ignored), nullptr otherwise.
  template <typename T>
  [[nodiscard]] const T* get_if() const noexcept {
    if (!body_ || *body_->type != typeid(T)) return nullptr;
    return &static_cast<const Body<std::remove_cv_t<T>>*>(body_.get())->value;
  }

  [[nodiscard]] std::int64_t wire_bytes() const { return wire_bytes_; }
  [[nodiscard]] bool empty() const { return body_ == nullptr; }

  /// Trace envelope stamp (obs/span.h). Default-constructed (trace_id 0)
  /// means "untraced"; the stamp rides by value so multicast copies
  /// share the body but each hop can restamp its own context.
  [[nodiscard]] const obs::SpanContext& span() const { return span_; }
  void set_span(obs::SpanContext span) { span_ = span; }

 private:
  struct BodyBase {
    const std::type_info* type;
  };
  template <typename T>
  struct Body : BodyBase {
    explicit Body(T v) : BodyBase{&typeid(T)}, value(std::move(v)) {}
    T value;
  };

  std::shared_ptr<const BodyBase> body_;
  std::int64_t wire_bytes_ = 0;
  obs::SpanContext span_{};
};

}  // namespace aqua::net
