/**
 * @file
 * Named-bitfield message layouts (PyMTL's BitStruct).
 *
 * A BitStructLayout describes a fixed-width message as an ordered list
 * of named fields. Fields are packed most-significant-first in
 * declaration order, matching PyMTL/Verilog struct conventions, so the
 * first declared field occupies the top bits of the message.
 *
 * Field handles. The name-keyed accessors (get/set by string) search
 * the field list on every call. Hot host code resolves each field once
 * — `const BitField &dest = layout.field("dest")` at construction —
 * and then uses the handle: get(msg, handle) slices a Bits message of
 * any width, and for layouts of at most 64 bits the message can stay
 * a plain uint64_t end to end (Signal::u64() / setNext(uint64_t)):
 * handle.extract(word) reads a field, packWord() builds a message and
 * handle.place(value) positions a field value for OR-ing into one.
 */

#ifndef CMTL_CORE_BITSTRUCT_H
#define CMTL_CORE_BITSTRUCT_H

#include <string>
#include <vector>

#include "bits.h"

namespace cmtl {

/** One field of a BitStructLayout; doubles as a resolved handle. */
struct BitField
{
    std::string name;
    int nbits;
    int lsb; //!< filled in by BitStructLayout

    /** This field of a message packed in one word (field within bit
     *  63). */
    uint64_t
    extract(uint64_t msg) const
    {
        return (msg >> lsb) & topWordMask(nbits);
    }
    /** @p value truncated to the field width, at the field's bit
     *  position (OR it into a one-word message). */
    uint64_t
    place(uint64_t value) const
    {
        return (value & topWordMask(nbits)) << lsb;
    }
};

/**
 * A fixed-width message format with named fields.
 *
 * Layouts are value types: two layouts with the same fields describe
 * the same wire format. Field accessors return slices of a Bits value.
 */
class BitStructLayout
{
  public:
    BitStructLayout() = default;

    /** Build from (name, width) pairs; first field = most significant. */
    BitStructLayout(std::string name,
                    std::initializer_list<std::pair<const char *, int>> fields);

    const std::string &name() const { return name_; }
    int nbits() const { return nbits_; }
    const std::vector<BitField> &fields() const { return fields_; }

    /** True iff a field with the given name exists. */
    bool hasField(const std::string &field) const;
    /** Field descriptor; throws std::out_of_range if missing. */
    const BitField &field(const std::string &field) const;

    /** Extract the named field from a packed message. */
    Bits get(const Bits &msg, const std::string &field) const;
    /** Extract a resolved field (a handle from field()). */
    Bits
    get(const Bits &msg, const BitField &f) const
    {
        return msg.slice(f.lsb, f.nbits);
    }
    /** Return @p msg with the named field overwritten by @p value. */
    Bits set(const Bits &msg, const std::string &field,
             const Bits &value) const;
    Bits set(const Bits &msg, const std::string &field,
             uint64_t value) const;

    /** Pack field values given in declaration order. */
    Bits pack(std::initializer_list<uint64_t> values) const;
    /**
     * pack() into one word. Throws std::logic_error when the layout is
     * wider than 64 bits, std::invalid_argument on a wrong value count.
     */
    uint64_t packWord(std::initializer_list<uint64_t> values) const;

    /** Render "field:val|field:val" for line tracing. */
    std::string trace(const Bits &msg) const;

  private:
    std::string name_;
    int nbits_ = 0;
    std::vector<BitField> fields_;
};

} // namespace cmtl

#endif // CMTL_CORE_BITSTRUCT_H
