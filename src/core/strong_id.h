// Strong ID and quantity types: compile-time address safety for the whole stack.
//
// The paper's core complaint is that the block interface hides which layer owns each physical
// address decision. Our reproduction threads channel/plane/block/page/zone/LBA indexes through
// flash -> ftl -> zns -> hostftl -> zonefile -> kv; with raw integers, a swapped
// (plane, block) argument or an LBA used as a physical page number compiles silently and only
// surfaces as a wrong write-amplification figure. Every address-like index therefore gets its
// own type below. The types are zero-overhead wrappers: same representation, same codegen,
// but distinct, non-interconvertible types, so the historical bug classes become compile
// errors:
//
//   ChannelId c = PlaneId{1};        // error: no conversion between distinct ID types
//   ChannelId c = 1;                 // error: construction is explicit
//   EraseBlock(plane, channel, ...)  // error: arguments are in the wrong order
//   Lba l = Ppa{7};                  // error: logical and physical spaces don't mix
//   lba_a + lba_b                    // error: adding two addresses is meaningless
//   Bytes{8} + Pages{1}              // error: unit mismatch
//
// tests/strong_id_compile_fail.cc proves each of these (and more) is rejected by the
// compiler; tools/lint.py bans new raw `uint32_t channel/plane/block`-style parameters so the
// guarantees cannot silently erode.

#ifndef BLOCKHEAD_SRC_CORE_STRONG_ID_H_
#define BLOCKHEAD_SRC_CORE_STRONG_ID_H_

#include <compare>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <ostream>
#include <type_traits>

namespace blockhead {

// An opaque index into one address space. `Tag` is an (incomplete) marker type that makes
// each instantiation a distinct type; `Rep` is the underlying integer representation.
//
// Deliberate semantics:
//   * construction from the representation is explicit (no `ChannelId c = 3;`);
//   * there is no conversion, implicit or explicit, between different StrongId types;
//   * IDs are ordered and hashable so they work as map keys and loop bounds;
//   * an ID plus/minus an integer offset is an ID (iteration, striding); the difference of
//     two IDs is an integer distance; adding two IDs does not compile (meaningless).
template <typename Tag, typename Rep>
class StrongId {
  static_assert(std::is_unsigned_v<Rep>, "address spaces are unsigned");

 public:
  using rep_type = Rep;

  constexpr StrongId() = default;
  // Explicit, and always brace-initialized in this codebase: brace rules make a narrowing
  // construction (`ChannelId{some_u64}`) a compile error, while
  // `ChannelId{PlaneId{1}.value()}` stays a visible, greppable escape hatch.
  constexpr explicit StrongId(Rep value) : value_(value) {}

  constexpr Rep value() const { return value_; }

  friend constexpr bool operator==(StrongId a, StrongId b) = default;
  friend constexpr auto operator<=>(StrongId a, StrongId b) = default;

  constexpr StrongId& operator++() {
    ++value_;
    return *this;
  }
  constexpr StrongId operator++(int) {
    StrongId old = *this;
    ++value_;
    return old;
  }

  // Offset arithmetic: ID (+|-) distance -> ID; ID - ID -> distance.
  friend constexpr StrongId operator+(StrongId a, Rep d) { return StrongId(a.value_ + d); }
  friend constexpr StrongId operator-(StrongId a, Rep d) { return StrongId(a.value_ - d); }
  friend constexpr Rep operator-(StrongId a, StrongId b) { return a.value_ - b.value_; }

  friend std::ostream& operator<<(std::ostream& os, StrongId id) {
    return os << +id.value_;
  }

 private:
  Rep value_ = 0;
};

// Physical flash hierarchy (paper §2.1): channel -> plane -> erasure block -> page. Each
// index is relative to its parent (PlaneId is "plane within channel", PageId is "page within
// block"), matching PhysAddr in src/flash/geometry.h.
using ChannelId = StrongId<struct ChannelIdTag, std::uint32_t>;
using PlaneId = StrongId<struct PlaneIdTag, std::uint32_t>;
using BlockId = StrongId<struct BlockIdTag, std::uint32_t>;
using PageId = StrongId<struct PageIdTag, std::uint32_t>;

// Zone index within a zoned namespace (src/zns).
using ZoneId = StrongId<struct ZoneIdTag, std::uint32_t>;

// Shard index in the fleet layer (src/fleet). Shards are routed onto devices, so a shard
// index and a device index live side by side in the same code — keeping ShardId strong means
// a shard used where a device ordinal (or zone) was meant cannot compile.
using ShardId = StrongId<struct ShardIdTag, std::uint32_t>;

// Logical block address: the host-visible flat page-granularity address space exported by
// BlockDevice and by ZnsDevice reads. Never interchangeable with a physical page number.
using Lba = StrongId<struct LbaTag, std::uint64_t>;

// Physical page address in flat form (plane-major, then block, then page): the dense-table
// index the FTLs map LBAs onto. See FlatPageIndex in src/flash/geometry.h.
using Ppa = StrongId<struct PpaTag, std::uint64_t>;

// Overflow handler for the checked quantity arithmetic below. Quantities count real,
// physically bounded resources (bytes of flash, pages of capacity); wrapping silently would
// corrupt every downstream write-amplification figure, so we hard-stop instead.
[[noreturn]] inline void QuantityOverflow(const char* op) {
  std::fprintf(stderr, "blockhead: quantity arithmetic overflow in %s\n", op);
  std::abort();
}

// A count of one physical unit (bytes, pages). Like StrongId, instantiations are distinct
// and non-interconvertible, which keeps `Bytes + Pages` from compiling. Unlike IDs,
// quantities form a proper (checked) arithmetic group: add, subtract, and scale.
template <typename Tag, typename Rep>
class Quantity {
  static_assert(std::is_unsigned_v<Rep>, "quantities are unsigned");

 public:
  using rep_type = Rep;

  constexpr Quantity() = default;
  constexpr explicit Quantity(Rep value) : value_(value) {}

  constexpr Rep value() const { return value_; }

  friend constexpr bool operator==(Quantity a, Quantity b) = default;
  friend constexpr auto operator<=>(Quantity a, Quantity b) = default;

  // Checked arithmetic: overflow and underflow abort rather than wrap.
  friend constexpr Quantity operator+(Quantity a, Quantity b) {
    Rep sum = 0;
    if (__builtin_add_overflow(a.value_, b.value_, &sum)) {
      QuantityOverflow("operator+");
    }
    return Quantity(sum);
  }
  friend constexpr Quantity operator-(Quantity a, Quantity b) {
    Rep diff = 0;
    if (__builtin_sub_overflow(a.value_, b.value_, &diff)) {
      QuantityOverflow("operator-");
    }
    return Quantity(diff);
  }
  friend constexpr Quantity operator*(Quantity a, Rep scale) {
    Rep product = 0;
    if (__builtin_mul_overflow(a.value_, scale, &product)) {
      QuantityOverflow("operator*");
    }
    return Quantity(product);
  }
  friend constexpr Quantity operator*(Rep scale, Quantity a) { return a * scale; }

  constexpr Quantity& operator+=(Quantity other) { return *this = *this + other; }
  constexpr Quantity& operator-=(Quantity other) { return *this = *this - other; }

  friend std::ostream& operator<<(std::ostream& os, Quantity q) {
    return os << +q.value_;
  }

 private:
  Rep value_ = 0;
};

// Quantities used across layer boundaries: a byte count and a flash-page count. The two are
// related only through a geometry's page size; the named conversions below are the sole
// bridge, so a pages-where-bytes-was-meant bug cannot type-check.
using Bytes = Quantity<struct BytesTag, std::uint64_t>;
using Pages = Quantity<struct PagesTag, std::uint64_t>;

// Named unit conversions (page_size_bytes is a plain scalar: it is a geometry parameter, not
// an address or a resource count).
inline constexpr Bytes PagesToBytes(Pages pages, std::uint32_t page_size_bytes) {
  return Bytes(pages.value()) * page_size_bytes;
}
inline constexpr Pages BytesToPagesCeil(Bytes bytes, std::uint32_t page_size_bytes) {
  return Pages((bytes.value() + page_size_bytes - 1) / page_size_bytes);
}

}  // namespace blockhead

// Hashing: every StrongId/Quantity hashes exactly like its representation, so they drop into
// unordered containers without boilerplate.
template <typename Tag, typename Rep>
struct std::hash<blockhead::StrongId<Tag, Rep>> {
  std::size_t operator()(blockhead::StrongId<Tag, Rep> id) const noexcept {
    return std::hash<Rep>{}(id.value());
  }
};
template <typename Tag, typename Rep>
struct std::hash<blockhead::Quantity<Tag, Rep>> {
  std::size_t operator()(blockhead::Quantity<Tag, Rep> q) const noexcept {
    return std::hash<Rep>{}(q.value());
  }
};

#endif  // BLOCKHEAD_SRC_CORE_STRONG_ID_H_
