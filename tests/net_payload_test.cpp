#include "net/payload.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

namespace aqua::net {
namespace {

TEST(PayloadTest, DefaultIsEmpty) {
  Payload p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.wire_bytes(), 0);
  EXPECT_EQ(p.get_if<int>(), nullptr);
}

TEST(PayloadTest, RoundTripsBody) {
  const Payload p = Payload::make(std::string{"hello"}, 64);
  ASSERT_NE(p.get_if<std::string>(), nullptr);
  EXPECT_EQ(*p.get_if<std::string>(), "hello");
  EXPECT_EQ(p.wire_bytes(), 64);
  EXPECT_FALSE(p.empty());
}

TEST(PayloadTest, WrongTypeYieldsNull) {
  const Payload p = Payload::make(42, 8);
  EXPECT_EQ(p.get_if<std::string>(), nullptr);
  EXPECT_EQ(p.get_if<double>(), nullptr);
  ASSERT_NE(p.get_if<int>(), nullptr);
  EXPECT_EQ(*p.get_if<int>(), 42);
}

TEST(PayloadTest, CopiesShareTheBody) {
  const Payload p = Payload::make(std::string{"shared"}, 16);
  const Payload q = p;  // multicast fan-out copies
  EXPECT_EQ(p.get_if<std::string>(), q.get_if<std::string>());  // same object
}

TEST(PayloadTest, ZeroWireBytesAllowed) {
  const Payload p = Payload::make(1, 0);
  EXPECT_EQ(p.wire_bytes(), 0);
}

TEST(PayloadTest, NegativeWireBytesRejected) {
  EXPECT_THROW(Payload::make(1, -5), std::invalid_argument);
}

TEST(PayloadTest, StructBodiesWork) {
  struct Body {
    int a;
    double b;
  };
  const Payload p = Payload::make(Body{3, 2.5}, 24);
  ASSERT_NE(p.get_if<Body>(), nullptr);
  EXPECT_EQ(p.get_if<Body>()->a, 3);
  EXPECT_DOUBLE_EQ(p.get_if<Body>()->b, 2.5);
}

TEST(PayloadTest, GetIfMatchesTheExactTypeOnly) {
  struct Base {
    int a = 1;
  };
  struct Derived : Base {};
  const Payload p = Payload::make(Derived{}, 8);
  EXPECT_EQ(p.get_if<Base>(), nullptr);  // no derived-to-base match
  ASSERT_NE(p.get_if<Derived>(), nullptr);
  EXPECT_EQ(p.get_if<const Derived>(), p.get_if<Derived>());  // cv ignored
  const Payload q = Payload::make(std::int64_t{7}, 8);
  EXPECT_EQ(q.get_if<int>(), nullptr);  // no arithmetic conversion
  EXPECT_EQ(q.get_if<std::uint64_t>(), nullptr);
}

TEST(PayloadTest, LargeBodiesRoundTrip) {
  struct Big {
    std::array<std::int64_t, 32> words{};
    std::string tag;
  };
  Big big;
  big.words[31] = 99;
  big.tag = std::string(100, 'x');
  const Payload p = Payload::make(big, 512);
  const Payload copy = p;
  ASSERT_NE(copy.get_if<Big>(), nullptr);
  EXPECT_EQ(copy.get_if<Big>()->words[31], 99);
  EXPECT_EQ(copy.get_if<Big>()->tag, big.tag);
}

}  // namespace
}  // namespace aqua::net
