/**
 * @file
 * Unit tests for the abstract capability value (section 4.1):
 * monotonicity, sealing, representability behaviour, ghost-state
 * stickiness, serialization round trips on both architectures.
 */
#include <gtest/gtest.h>

#include <random>

#include "cap/cap_format.h"
#include "cap/cc64.h"
#include "cap/cc128.h"

namespace cherisem::cap {

// Print a parameter as its architecture name, not its address, so the
// listed test names are the same on every run.
static void
PrintTo(const CapArch *arch, std::ostream *os)
{
    *os << arch->name();
}

namespace {

class CapabilityTest : public ::testing::TestWithParam<const CapArch *>
{
  protected:
    const CapArch &arch() const { return *GetParam(); }
    uint64_t
    base() const
    {
        return arch().addrBits() == 64 ? 0xffffe000ull : 0x20004000ull;
    }
};

TEST_P(CapabilityTest, NullCapability)
{
    Capability n = Capability::null(arch());
    EXPECT_FALSE(n.tag());
    EXPECT_EQ(n.address(), 0u);
    EXPECT_EQ(n.perms().bits(), 0u);
    EXPECT_EQ(n.base(), 0u);
    EXPECT_EQ(n.top(), arch().addrSpaceTop());
    EXPECT_FALSE(n.isSealed());
}

TEST_P(CapabilityTest, MakeIsTaggedAndExactForSmall)
{
    Capability c = Capability::make(arch(), base(),
                                    uint128(base()) + 64,
                                    PermSet::data());
    EXPECT_TRUE(c.tag());
    EXPECT_EQ(c.base(), base());
    EXPECT_EQ(c.length(), 64u);
    EXPECT_EQ(c.address(), base());
}

TEST_P(CapabilityTest, InBoundsAddressKeepsTag)
{
    Capability c = Capability::make(arch(), base(),
                                    uint128(base()) + 256,
                                    PermSet::data());
    for (uint64_t off : {0u, 1u, 100u, 255u, 256u}) {
        Capability m = c.withAddress(base() + off);
        EXPECT_TRUE(m.tag()) << off;
        EXPECT_EQ(m.bounds(), c.bounds());
    }
}

TEST_P(CapabilityTest, WildAddressClearsTagKeepsAddress)
{
    Capability c = Capability::make(arch(), base(),
                                    uint128(base()) + 16,
                                    PermSet::data());
    uint64_t wild = base() + (1u << 24);
    Capability m = c.withAddress(wild);
    EXPECT_FALSE(m.tag());
    EXPECT_EQ(m.address(), wild);
}

TEST_P(CapabilityTest, GhostAddressMarksBoundsUnspec)
{
    Capability c = Capability::make(arch(), base(),
                                    uint128(base()) + 16,
                                    PermSet::data());
    uint64_t wild = base() + (1u << 24);
    Capability m = c.withAddressGhost(wild);
    EXPECT_FALSE(m.tag());
    EXPECT_TRUE(m.ghost().boundsUnspec);
    EXPECT_EQ(m.address(), wild);
    // Sticky: coming back into range does not clear the ghost bit.
    Capability back = m.withAddressGhost(base());
    EXPECT_TRUE(back.ghost().boundsUnspec);
    EXPECT_FALSE(back.tag());
}

TEST_P(CapabilityTest, NarrowingKeepsTagGrowingClears)
{
    Capability c = Capability::make(arch(), base(),
                                    uint128(base()) + 128,
                                    PermSet::data());
    Capability narrow = c.withBounds(base(), uint128(base()) + 32);
    EXPECT_TRUE(narrow.tag());
    EXPECT_EQ(narrow.length(), 32u);
    Capability grown =
        narrow.withBounds(base(), uint128(base()) + 128);
    EXPECT_FALSE(grown.tag());
}

TEST_P(CapabilityTest, PermsOnlyShrink)
{
    Capability c = Capability::make(arch(), base(),
                                    uint128(base()) + 16,
                                    PermSet::data());
    Capability ro = c.withPerms(PermSet::readOnlyData());
    EXPECT_FALSE(ro.canStore());
    EXPECT_TRUE(ro.canLoad());
    Capability attempt = ro.withPerms(PermSet::all());
    EXPECT_FALSE(attempt.canStore());
}

TEST_P(CapabilityTest, SealingBlocksModification)
{
    Capability c = Capability::make(arch(), base(),
                                    uint128(base()) + 16,
                                    PermSet::data());
    Capability s = c.sealed(3);
    EXPECT_TRUE(s.tag());
    EXPECT_TRUE(s.isSealed());
    EXPECT_FALSE(s.withAddress(base() + 4).tag());
    EXPECT_FALSE(s.withPerms(PermSet::readOnlyData()).tag());
    EXPECT_FALSE(s.withBounds(base(), uint128(base()) + 8).tag());
    // Re-sealing a sealed capability invalidates it.
    EXPECT_FALSE(s.sealed(4).tag());
    // Unsealing restores an ordinary capability.
    Capability u = s.unsealed();
    EXPECT_FALSE(u.isSealed());
    EXPECT_TRUE(u.tag());
}

TEST_P(CapabilityTest, EqualExactComparesEveryField)
{
    Capability c = Capability::make(arch(), base(),
                                    uint128(base()) + 16,
                                    PermSet::data());
    EXPECT_TRUE(c.equalExact(c));
    EXPECT_FALSE(c.equalExact(c.withTagCleared()));
    EXPECT_FALSE(c.equalExact(c.withAddress(base() + 1)));
    EXPECT_FALSE(c.equalExact(c.withPerms(PermSet::readOnlyData())));
    EXPECT_FALSE(c.equalExact(c.sealed(2)));
}

TEST_P(CapabilityTest, SerializationRoundTrip)
{
    std::mt19937_64 rng(99);
    for (int i = 0; i < 500; ++i) {
        uint64_t b = (rng() & (arch().addrMask() >> 2));
        uint64_t len = (rng() % 4000) + 1;
        Capability c = Capability::make(arch(), b, uint128(b) + len,
                                        PermSet::data());
        c = c.withAddress(b + (rng() % (len + 1)));
        std::vector<uint8_t> buf(arch().capSize());
        arch().toBytes(c, buf.data());
        Capability back = arch().fromBytes(buf.data(), c.tag());
        EXPECT_TRUE(back.equalExact(c))
            << "b=" << b << " len=" << len;
        EXPECT_EQ(back.bounds(), c.bounds());
    }
}

TEST_P(CapabilityTest, SerializationPreservesSealAndPerms)
{
    Capability c = Capability::make(arch(), base(),
                                    uint128(base()) + 32,
                                    PermSet::basic())
                       .sealed(arch().otypeBits() >= 15 ? 77 : 5);
    std::vector<uint8_t> buf(arch().capSize());
    arch().toBytes(c, buf.data());
    Capability back = arch().fromBytes(buf.data(), true);
    EXPECT_EQ(back.otype(), c.otype());
    EXPECT_EQ(back.perms(), c.perms());
}

INSTANTIATE_TEST_SUITE_P(Arches, CapabilityTest,
                         ::testing::Values(&morello(), &cheriot()),
                         [](const auto &info) {
                             return std::string(info.param->name());
                         });

TEST(CapFormat, AbstractStyle)
{
    Capability c = Capability::make(morello(), 0x1000, 0x1010,
                                    PermSet::data());
    EXPECT_EQ(formatCap(c, FormatStyle::Abstract),
              "0x1000 [rwRW,0x1000-0x1010]");
    EXPECT_EQ(formatCap(c.withTagCleared(), FormatStyle::Abstract),
              "0x1000 [rwRW,0x1000-0x1010] (notag)");
    GhostState g;
    g.boundsUnspec = true;
    EXPECT_EQ(formatCap(c.withTagCleared().withGhost(g),
                        FormatStyle::Abstract),
              "0x1000 [?-?] (notag)");
    g = GhostState{};
    g.tagUnspec = true;
    EXPECT_EQ(formatCap(c.withGhost(g), FormatStyle::Abstract),
              "0x1000 [rwRW,0x1000-0x1010] (tag?)");
}

TEST(CapFormat, ConcreteStyle)
{
    Capability c = Capability::make(morello(), 0x1000, 0x1010,
                                    PermSet::data());
    EXPECT_EQ(formatCap(c, FormatStyle::Concrete),
              "0x1000 [rwRW,0x1000-0x1010]");
    EXPECT_EQ(formatCap(c.withTagCleared(), FormatStyle::Concrete),
              "0x1000 [rwRW,0x1000-0x1010] (invalid)");
    // Concrete style ignores ghost state (hardware has none).
    GhostState g;
    g.boundsUnspec = true;
    EXPECT_EQ(formatCap(c.withGhost(g), FormatStyle::Concrete),
              "0x1000 [rwRW,0x1000-0x1010]");
}

TEST(CapFormat, SealedMarkers)
{
    Capability c = Capability::make(morello(), 0x1000, 0x1010,
                                    PermSet::code());
    EXPECT_NE(formatCap(c.sealed(OTYPE_SENTRY),
                        FormatStyle::Abstract)
                  .find("(sentry)"),
              std::string::npos);
    EXPECT_NE(formatCap(c.sealed(9), FormatStyle::Abstract)
                  .find("(sealed:9)"),
              std::string::npos);
}

TEST(Permissions, ShortString)
{
    EXPECT_EQ(PermSet::data().shortStr(), "rwRW");
    EXPECT_EQ(PermSet::readOnlyData().shortStr(), "r-R-");
    EXPECT_EQ(PermSet::code().shortStr(), "r---x");
    EXPECT_EQ(PermSet().shortStr(), "----");
}

TEST(Permissions, SetOperations)
{
    PermSet p = PermSet().with(Perm::Load).with(Perm::Store);
    EXPECT_TRUE(p.has(Perm::Load));
    EXPECT_FALSE(p.has(Perm::Execute));
    PermSet q = p.without(Perm::Store);
    EXPECT_FALSE(q.has(Perm::Store));
    EXPECT_TRUE((p & q).has(Perm::Load));
    EXPECT_FALSE((p & q).has(Perm::Store));
}

} // namespace
} // namespace cherisem::cap
