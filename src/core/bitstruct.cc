#include "bitstruct.h"

#include <stdexcept>

namespace cmtl {

BitStructLayout::BitStructLayout(
    std::string name,
    std::initializer_list<std::pair<const char *, int>> fields)
    : name_(std::move(name))
{
    for (const auto &[fname, fbits] : fields) {
        if (fbits < 1)
            throw std::invalid_argument("field width must be >= 1");
        fields_.push_back(BitField{fname, fbits, 0});
        nbits_ += fbits;
    }
    int pos = nbits_;
    for (auto &f : fields_) {
        pos -= f.nbits;
        f.lsb = pos;
    }
}

bool
BitStructLayout::hasField(const std::string &field) const
{
    for (const auto &f : fields_) {
        if (f.name == field)
            return true;
    }
    return false;
}

const BitField &
BitStructLayout::field(const std::string &field) const
{
    for (const auto &f : fields_) {
        if (f.name == field)
            return f;
    }
    throw std::out_of_range("no field '" + field + "' in " + name_);
}

Bits
BitStructLayout::get(const Bits &msg, const std::string &fname) const
{
    const BitField &f = field(fname);
    return msg.slice(f.lsb, f.nbits);
}

Bits
BitStructLayout::set(const Bits &msg, const std::string &fname,
                     const Bits &value) const
{
    const BitField &f = field(fname);
    Bits out = msg;
    out.setSlice(f.lsb, value.zext(f.nbits));
    return out;
}

Bits
BitStructLayout::set(const Bits &msg, const std::string &fname,
                     uint64_t value) const
{
    const BitField &f = field(fname);
    return set(msg, fname, Bits(f.nbits, value));
}

Bits
BitStructLayout::pack(std::initializer_list<uint64_t> values) const
{
    if (values.size() != fields_.size())
        throw std::invalid_argument("pack: wrong number of field values");
    Bits out(nbits_);
    auto it = values.begin();
    for (const auto &f : fields_) {
        out.setSlice(f.lsb, Bits(f.nbits, *it));
        ++it;
    }
    return out;
}

uint64_t
BitStructLayout::packWord(std::initializer_list<uint64_t> values) const
{
    if (nbits_ > 64)
        throw std::logic_error("packWord: " + name_ + " is " +
                               std::to_string(nbits_) + " bits wide");
    if (values.size() != fields_.size())
        throw std::invalid_argument("pack: wrong number of field values");
    uint64_t out = 0;
    auto it = values.begin();
    for (const auto &f : fields_)
        out |= f.place(*it++);
    return out;
}

std::string
BitStructLayout::trace(const Bits &msg) const
{
    std::string out;
    for (const auto &f : fields_) {
        if (!out.empty())
            out += "|";
        out += f.name + ":" + msg.slice(f.lsb, f.nbits).toHexString();
    }
    return out;
}

} // namespace cmtl
