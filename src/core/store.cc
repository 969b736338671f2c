#include "store.h"

namespace cmtl {

// ------------------------------------------------------------ BoxedStore

BoxedStore::BoxedStore(const Elaboration &elab) : elab_(elab)
{
    for (const Net &net : elab.nets) {
        cur_[net.name] = std::make_shared<Bits>(net.nbits, 0);
        nxt_[net.name] = std::make_shared<Bits>(net.nbits, 0);
    }
    for (const MemArray *array : elab.arrays) {
        arrays_[array->fullName()] = std::vector<Box>(
            array->depth(),
            std::make_shared<Bits>(array->nbits(), 0));
    }
}

Bits
BoxedStore::arrayRead(int array_id, uint64_t index) const
{
    const MemArray *array = elab_.arrays[array_id];
    const auto &vec = arrays_.find(array->fullName())->second;
    return *vec[index & array->indexMask()];
}

void
BoxedStore::arrayWrite(int array_id, uint64_t index, const Bits &value)
{
    const MemArray *array = elab_.arrays[array_id];
    auto &vec = arrays_.find(array->fullName())->second;
    vec[index & array->indexMask()] =
        std::make_shared<Bits>(value.zext(array->nbits()));
}

Bits
BoxedStore::read(int net) const
{
    // Hash lookup of the hierarchical name, then unbox: the cost model
    // of a CPython attribute read.
    return *cur_.find(elab_.nets[net].name)->second;
}

Bits
BoxedStore::readNext(int net) const
{
    return *nxt_.find(elab_.nets[net].name)->second;
}

bool
BoxedStore::write(int net, const Bits &value)
{
    auto it = cur_.find(elab_.nets[net].name);
    Bits truncated = value.zext(elab_.nets[net].nbits);
    if (*it->second == truncated)
        return false;
    // Rebind to a freshly allocated box, like Python object churn.
    it->second = std::make_shared<Bits>(truncated);
    return true;
}

void
BoxedStore::writeNext(int net, const Bits &value)
{
    auto it = nxt_.find(elab_.nets[net].name);
    it->second = std::make_shared<Bits>(value.zext(elab_.nets[net].nbits));
}

bool
BoxedStore::flop(int net)
{
    auto nit = nxt_.find(elab_.nets[net].name);
    auto cit = cur_.find(elab_.nets[net].name);
    if (*cit->second == *nit->second)
        return false;
    cit->second = std::make_shared<Bits>(*nit->second);
    return true;
}

// ------------------------------------------------------------ ArenaStore

ArenaStore::ArenaStore(const Elaboration &elab)
    : ArenaStore(elab, std::make_shared<const ArenaLayout>(
                           ArenaLayout::elabOrder(elab)))
{
}

ArenaStore::ArenaStore(const Elaboration &elab,
                       std::shared_ptr<const ArenaLayout> layout)
    : layout_(std::move(layout))
{
    const int nnets = static_cast<int>(elab.nets.size());
    offset_.resize(nnets);
    narrow_offset_.resize(nnets);
    shift_.resize(nnets);
    packed_.resize(nnets);
    nwords_.resize(nnets);
    nbits_.resize(nnets);
    mask_.resize(nnets);
    for (int i = 0; i < nnets; ++i) {
        const LayoutSlot &s = layout_->slot(i);
        offset_[i] = s.word_off;
        narrow_offset_[i] = s.nwords == 1 ? s.word_off : -1;
        shift_[i] = s.shift;
        packed_[i] = layout_->packed(i) ? 1 : 0;
        nwords_[i] = s.nwords;
        nbits_[i] = s.nbits;
        mask_[i] = s.mask;
    }
    words_per_phase_ = layout_->wordsPerPhase();

    // Array storage lives past the two net phases.
    for (size_t a = 0; a < elab.arrays.size(); ++a) {
        const MemArray *array = elab.arrays[a];
        array_offset_.push_back(
            layout_->arrayOffset(static_cast<int>(a)));
        array_mask_.push_back(array->indexMask());
        array_vmask_.push_back(topWordMask(array->nbits()));
        array_nbits_.push_back(array->nbits());
    }
    words_.assign(static_cast<size_t>(layout_->totalWords()), 0);
}

Bits
ArenaStore::arrayRead(int array_id, uint64_t index) const
{
    const uint64_t masked = index & array_mask_[array_id];
    return Bits(array_nbits_[array_id],
                words_[array_offset_[array_id] + masked]);
}

void
ArenaStore::arrayWrite(int array_id, uint64_t index, const Bits &value)
{
    const uint64_t masked = index & array_mask_[array_id];
    words_[array_offset_[array_id] + masked] =
        value.toUint64() & array_vmask_[array_id];
}

Bits
ArenaStore::read(int net) const
{
    if (nwords_[net] == 1)
        return Bits(nbits_[net],
                    (words_[offset_[net]] >> shift_[net]) & mask_[net]);
    std::vector<uint64_t> w(words_.begin() + offset_[net],
                            words_.begin() + offset_[net] + nwords_[net]);
    return Bits::fromWords(nbits_[net], w);
}

Bits
ArenaStore::readNext(int net) const
{
    int base = offset_[net] + words_per_phase_;
    if (nwords_[net] == 1)
        return Bits(nbits_[net],
                    (words_[base] >> shift_[net]) & mask_[net]);
    std::vector<uint64_t> w(words_.begin() + base,
                            words_.begin() + base + nwords_[net]);
    return Bits::fromWords(nbits_[net], w);
}

bool
ArenaStore::write(int net, const Bits &value)
{
    int base = offset_[net];
    if (nwords_[net] == 1) {
        // Masked read-modify-write: packed word-mates keep their
        // bits; the change test covers only this net's field.
        uint64_t v = value.word(0) & mask_[net];
        uint64_t &w = words_[base];
        if (((w >> shift_[net]) & mask_[net]) == v)
            return false;
        w = (w & ~(mask_[net] << shift_[net])) | (v << shift_[net]);
        return true;
    }
    bool changed = false;
    for (int i = 0; i < nwords_[net]; ++i) {
        uint64_t w = value.word(i);
        if (i == nwords_[net] - 1)
            w &= mask_[net];
        if (words_[base + i] != w) {
            words_[base + i] = w;
            changed = true;
        }
    }
    return changed;
}

void
ArenaStore::writeNext(int net, const Bits &value)
{
    int base = offset_[net] + words_per_phase_;
    if (nwords_[net] == 1) {
        uint64_t v = value.word(0) & mask_[net];
        uint64_t &w = words_[base];
        w = (w & ~(mask_[net] << shift_[net])) | (v << shift_[net]);
        return;
    }
    for (int i = 0; i < nwords_[net]; ++i) {
        uint64_t w = value.word(i);
        if (i == nwords_[net] - 1)
            w &= mask_[net];
        words_[base + i] = w;
    }
}

bool
ArenaStore::flop(int net)
{
    int cur = offset_[net];
    int nxt = cur + words_per_phase_;
    if (nwords_[net] == 1) {
        // Copy only this net's field: word-mates may not be flopped
        // (dynamically registered flops can live in comb words).
        uint64_t v = (words_[nxt] >> shift_[net]) & mask_[net];
        uint64_t &w = words_[cur];
        if (((w >> shift_[net]) & mask_[net]) == v)
            return false;
        w = (w & ~(mask_[net] << shift_[net])) | (v << shift_[net]);
        return true;
    }
    bool changed = false;
    for (int i = 0; i < nwords_[net]; ++i) {
        if (words_[cur + i] != words_[nxt + i]) {
            words_[cur + i] = words_[nxt + i];
            changed = true;
        }
    }
    return changed;
}

void
ArenaStore::flopRanges(const std::vector<FlopRange> &ranges)
{
    uint64_t *w = words_.data();
    for (const FlopRange &r : ranges) {
        const uint64_t *src = w + r.off + words_per_phase_;
        uint64_t *dst = w + r.off;
        for (int i = 0; i < r.nwords; ++i)
            dst[i] = src[i];
    }
}

} // namespace cmtl
