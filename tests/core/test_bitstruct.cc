#include <gtest/gtest.h>

#include "core/bitstruct.h"

namespace cmtl {
namespace {

BitStructLayout
netMsgLayout()
{
    // Paper's NetMsg: dest, src, opaque, payload (first field = MSBs).
    return BitStructLayout("NetMsg", {{"dest", 6},
                                      {"src", 6},
                                      {"opaque", 4},
                                      {"payload", 16}});
}

TEST(BitStruct, WidthAndOffsets)
{
    BitStructLayout layout = netMsgLayout();
    EXPECT_EQ(layout.nbits(), 32);
    EXPECT_EQ(layout.field("dest").lsb, 26);
    EXPECT_EQ(layout.field("src").lsb, 20);
    EXPECT_EQ(layout.field("opaque").lsb, 16);
    EXPECT_EQ(layout.field("payload").lsb, 0);
    EXPECT_TRUE(layout.hasField("src"));
    EXPECT_FALSE(layout.hasField("bogus"));
    EXPECT_THROW(layout.field("bogus"), std::out_of_range);
}

TEST(BitStruct, PackAndGet)
{
    BitStructLayout layout = netMsgLayout();
    Bits msg = layout.pack({9, 3, 5, 0xbeef});
    EXPECT_EQ(layout.get(msg, "dest").toUint64(), 9u);
    EXPECT_EQ(layout.get(msg, "src").toUint64(), 3u);
    EXPECT_EQ(layout.get(msg, "opaque").toUint64(), 5u);
    EXPECT_EQ(layout.get(msg, "payload").toUint64(), 0xbeefu);
    EXPECT_THROW(layout.pack({1, 2}), std::invalid_argument);
}

TEST(BitStruct, FieldHandlesMatchNamedAccess)
{
    BitStructLayout layout = netMsgLayout();
    const BitField &dest = layout.field("dest");
    const BitField &payload = layout.field("payload");
    const uint64_t word = layout.packWord({61, 3, 5, 0x1beef});
    const Bits msg = layout.pack({61, 3, 5, 0x1beef});
    EXPECT_EQ(Bits(32, word), msg); // both truncate each field
    EXPECT_EQ(dest.extract(word), 61u);
    EXPECT_EQ(payload.extract(word), 0xbeefu);
    EXPECT_EQ(layout.get(msg, dest), layout.get(msg, "dest"));
    EXPECT_EQ(layout.get(msg, payload), layout.get(msg, "payload"));
    EXPECT_EQ(dest.place(0xff), uint64_t(0x3f) << 26);
    EXPECT_THROW(layout.packWord({1, 2}), std::invalid_argument);

    BitStructLayout wide("Wide", {{"hi", 8}, {"lo", 60}});
    EXPECT_THROW(wide.packWord({1, 2}), std::logic_error);
    const Bits wmsg = wide.pack({0xab, 7});
    EXPECT_EQ(wide.get(wmsg, wide.field("hi")), Bits(8, 0xab));
}

TEST(BitStruct, SetPreservesOtherFields)
{
    BitStructLayout layout = netMsgLayout();
    Bits msg = layout.pack({9, 3, 5, 0xbeef});
    Bits updated = layout.set(msg, "src", 42);
    EXPECT_EQ(layout.get(updated, "src").toUint64(), 42u);
    EXPECT_EQ(layout.get(updated, "dest").toUint64(), 9u);
    EXPECT_EQ(layout.get(updated, "payload").toUint64(), 0xbeefu);
}

TEST(BitStruct, SetTruncatesWideValues)
{
    BitStructLayout layout = netMsgLayout();
    Bits msg(32, 0);
    Bits updated = layout.set(msg, "opaque", Bits(16, 0x123));
    EXPECT_EQ(layout.get(updated, "opaque").toUint64(), 0x3u);
}

TEST(BitStruct, SingleField)
{
    BitStructLayout layout("Raw", {{"data", 64}});
    EXPECT_EQ(layout.nbits(), 64);
    Bits msg = layout.pack({~uint64_t(0)});
    EXPECT_EQ(layout.get(msg, "data").toUint64(), ~uint64_t(0));
}

TEST(BitStruct, RejectsZeroWidthFields)
{
    EXPECT_THROW(BitStructLayout("Bad", {{"x", 0}}),
                 std::invalid_argument);
}

TEST(BitStruct, TraceFormatting)
{
    BitStructLayout layout("T", {{"a", 4}, {"b", 4}});
    Bits msg = layout.pack({0xa, 0x5});
    EXPECT_EQ(layout.trace(msg), "a:0xa|b:0x5");
}

} // namespace
} // namespace cmtl
