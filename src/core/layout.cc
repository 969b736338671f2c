#include "layout.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "partition.h"

namespace cmtl {

namespace {

/**
 * Widest net eligible for word sharing. Width is only half the
 * eligibility test: once a measured profile exists, packing is also
 * gated on the writer being cold (see profiled()). On the fig14 RTL
 * mesh, packing nets the steady-state loop writes every cycle costs
 * 10-20% throughput — each store becomes a read-modify-write through
 * a word shared with other writers, serialising otherwise independent
 * blocks. Cold nets pay that tax never-to-rarely, so for them the
 * footprint win is free and the width cap can be generous.
 */
constexpr int kPackMaxBits = 32;

} // namespace

const char *
layoutPolicyName(LayoutPolicy policy)
{
    return policy == LayoutPolicy::Profile ? "profile" : "elab";
}

LayoutPolicy
layoutPolicyFromName(const std::string &name)
{
    if (name == "elab")
        return LayoutPolicy::Elab;
    if (name == "profile")
        return LayoutPolicy::Profile;
    throw std::invalid_argument("unknown layout policy '" + name +
                                "' (valid: elab, profile)");
}

void
ArenaLayout::finishArrays(const Elaboration &elab)
{
    int array_off = words_per_phase_ * 2;
    for (const MemArray *array : elab.arrays) {
        array_offset_.push_back(array_off);
        array_off += array->depth();
    }
    total_words_ = array_off;
}

void
ArenaLayout::finishStats(const Elaboration &elab)
{
    int64_t unpacked_words = 0;
    for (const Net &net : elab.nets)
        unpacked_words += bitsToWords(net.nbits);
    stats_.words_per_phase = words_per_phase_;
    stats_.packed_bits_saved = (unpacked_words - words_per_phase_) * 64;
    stats_.packed_nets = 0;
    for (char p : packed_)
        stats_.packed_nets += p ? 1 : 0;
}

ArenaLayout
ArenaLayout::elabOrder(const Elaboration &elab)
{
    ArenaLayout out;
    const int nnets = static_cast<int>(elab.nets.size());
    out.slots_.resize(nnets);
    out.packed_.assign(nnets, 0);
    int off = 0;
    for (int i = 0; i < nnets; ++i) {
        const Net &net = elab.nets[i];
        LayoutSlot &s = out.slots_[i];
        s.word_off = off;
        s.shift = 0;
        s.nwords = bitsToWords(net.nbits);
        s.nbits = net.nbits;
        s.mask = topWordMask(net.nbits);
        off += s.nwords;
    }
    out.words_per_phase_ = off;
    out.word_nets_.resize(off);
    for (int i = 0; i < nnets; ++i) {
        const LayoutSlot &s = out.slots_[i];
        for (int w = 0; w < s.nwords; ++w)
            out.word_nets_[s.word_off + w].push_back(i);
    }
    out.stats_.policy = LayoutPolicy::Elab;
    out.finishArrays(elab);
    out.finishStats(elab);
    return out;
}

ArenaLayout
ArenaLayout::profiled(const Elaboration &elab, const PartitionPlan *plan,
                      const std::vector<double> *block_heat)
{
    ArenaLayout out;
    const int nnets = static_cast<int>(elab.nets.size());
    const int nblocks = static_cast<int>(elab.blocks.size());
    out.slots_.resize(nnets);
    out.packed_.assign(nnets, 0);

    // Producer block of each net (the statically known writer).
    std::vector<int> producer(nnets, -1);
    for (int b = 0; b < nblocks; ++b) {
        for (int tok : elab.blocks[b].writes) {
            if (tok < nnets)
                producer[tok] = b;
        }
    }

    // Ordering key of a producer block: measured-heat rank when a
    // profile is available (the PGO loop), schedule position
    // otherwise. Comb blocks follow the levelized order, tick blocks
    // trail in tick order — their outputs are flopped state read at
    // the top of the next cycle.
    std::vector<int> block_key(nblocks, nblocks);
    {
        int pos = 0;
        for (int b : elab.combOrder)
            block_key[b] = pos++;
        for (int b : elab.tickOrder)
            block_key[b] = pos++;
    }
    if (block_heat && !block_heat->empty()) {
        // Quantized heat rank, mirroring designCombOrder(): sampled
        // heat is noisy, so only order-of-magnitude (power-of-two
        // bucket) differences reorder blocks; ties keep the schedule
        // position, preserving the baseline order's locality.
        auto heatOf = [&](int b) {
            return b < static_cast<int>(block_heat->size())
                       ? (*block_heat)[b]
                       : 0.0;
        };
        double hmax = 0.0;
        for (int b = 0; b < nblocks; ++b)
            hmax = std::max(hmax, heatOf(b));
        if (hmax > 0.0) {
            std::vector<int> bucket(nblocks, 64);
            for (int b = 0; b < nblocks; ++b) {
                const double h = heatOf(b);
                if (h <= 0.0)
                    continue;
                int k = 0;
                double t = hmax;
                while (k < 63 && h < t / 8) {
                    t /= 8;
                    ++k;
                }
                bucket[b] = k;
            }
            std::vector<int> by_heat;
            for (int b = 0; b < nblocks; ++b)
                by_heat.push_back(b);
            std::stable_sort(by_heat.begin(), by_heat.end(),
                             [&](int a, int b) {
                                 if (bucket[a] != bucket[b])
                                     return bucket[a] < bucket[b];
                                 return block_key[a] < block_key[b];
                             });
            for (int rank = 0; rank < nblocks; ++rank)
                block_key[by_heat[rank]] = rank;
        }
        out.stats_.pgo = true;
    }

    // Packing cold-writer gate. Before a profile exists the layout is
    // footprint-optimal: every narrow net may share a word. Once the
    // PGO loop hands in measured heat, any net whose producer block
    // showed up in the profile is exempted — the heat-refined
    // re-layout un-packs the hot nets. A packed store is a
    // read-modify-write through a word shared with other writers, and
    // measured on the fig14 RTL mesh that serialisation costs 10-20%
    // of steady-state throughput, more than the smaller cache
    // footprint buys back. Producer-less nets (testbench-driven
    // inputs, written through the accessor path) always count as
    // cold.
    auto coldNet = [&](int net) {
        if (producer[net] < 0)
            return true;
        if (!block_heat || block_heat->empty())
            return true; // no profile yet: pack by width alone
        const int b = producer[net];
        const double h = b < static_cast<int>(block_heat->size())
                             ? (*block_heat)[b]
                             : 0.0;
        return h <= 0.0;
    };

    // Group index of a net: its owner island (external participant
    // last), single group without a plan. Word-mates must share a
    // group so ParSim's whole-word pushes stay within one ownership
    // domain.
    auto groupOf = [&](int net) {
        if (!plan)
            return 0;
        int island = net < static_cast<int>(plan->ownerOf.size())
                         ? plan->ownerOf[net]
                         : kExternalIsland;
        return island == kExternalIsland ? plan->nislands : island;
    };

    // Sort nets by (island, flop class, producer order, id). Flopped
    // nets lead each island so the flop phase coalesces into a few
    // contiguous next->cur ranges; packing never crosses a class or
    // island boundary.
    struct Key
    {
        int group, klass, block, id;
    };
    std::vector<Key> order(nnets);
    for (int i = 0; i < nnets; ++i) {
        const Net &net = elab.nets[i];
        order[i] = {groupOf(i), net.floppedStatic ? 0 : 1,
                    producer[i] >= 0 ? block_key[producer[i]] : -1, i};
    }
    std::sort(order.begin(), order.end(), [](const Key &a, const Key &b) {
        if (a.group != b.group)
            return a.group < b.group;
        if (a.klass != b.klass)
            return a.klass < b.klass;
        if (a.block != b.block)
            return a.block < b.block;
        return a.id < b.id;
    });

    // Greedy first-fit packing along the sorted order.
    int off = 0;
    int fill = 64; // bits used in the open word (64 = no open word)
    int open_group = -2, open_klass = -1;
    for (const Key &key : order) {
        const Net &net = elab.nets[key.id];
        LayoutSlot &s = out.slots_[key.id];
        s.nbits = net.nbits;
        s.nwords = bitsToWords(net.nbits);
        s.mask = topWordMask(net.nbits);
        const bool narrow_cold =
            net.nbits <= kPackMaxBits && coldNet(key.id);
        bool packable = narrow_cold && key.group == open_group &&
                        key.klass == open_klass;
        if (packable && fill + net.nbits <= 64) {
            s.word_off = off - 1; // continue the open word
            s.shift = fill;
            fill += net.nbits;
        } else {
            s.word_off = off;
            s.shift = 0;
            off += s.nwords;
            // Only a narrow cold net leaves its word open for mates.
            fill = narrow_cold ? net.nbits : 64;
            open_group = key.group;
            open_klass = key.klass;
        }
    }
    out.words_per_phase_ = off;

    out.word_nets_.resize(off);
    for (int i = 0; i < nnets; ++i) {
        const LayoutSlot &s = out.slots_[i];
        for (int w = 0; w < s.nwords; ++w)
            out.word_nets_[s.word_off + w].push_back(i);
    }
    for (int i = 0; i < nnets; ++i) {
        const LayoutSlot &s = out.slots_[i];
        if (s.nwords == 1 && out.word_nets_[s.word_off].size() > 1)
            out.packed_[i] = 1;
    }

    out.stats_.policy = LayoutPolicy::Profile;
    out.finishArrays(elab);
    out.finishStats(elab);
    return out;
}

FlopCopyPlan
ArenaLayout::flopPlan(const std::vector<int> &flop_nets) const
{
    FlopCopyPlan plan;
    std::vector<int> covered(words_per_phase_, 0);
    for (int net : flop_nets) {
        const LayoutSlot &s = slots_[net];
        for (int w = 0; w < s.nwords; ++w)
            ++covered[s.word_off + w];
    }
    // A word is whole-copyable iff every resident net is flopped.
    std::vector<char> copyable(words_per_phase_, 0);
    for (int w = 0; w < words_per_phase_; ++w) {
        copyable[w] =
            covered[w] > 0 &&
            covered[w] == static_cast<int>(word_nets_[w].size());
    }
    for (int net : flop_nets) {
        const LayoutSlot &s = slots_[net];
        for (int w = 0; w < s.nwords; ++w)
            assert(copyable[s.word_off + w] &&
                   "flop net shares a word with a non-flop resident");
    }
    for (int w = 0; w < words_per_phase_; ++w) {
        if (!copyable[w])
            continue;
        if (!plan.ranges.empty() &&
            plan.ranges.back().off + plan.ranges.back().nwords == w)
            ++plan.ranges.back().nwords;
        else
            plan.ranges.push_back({w, 1});
    }
    return plan;
}

FlopCopyPlan
ArenaLayout::dynamicFlopPlan(const std::vector<int> &flop_nets,
                             const std::vector<char> &flopped) const
{
    FlopCopyPlan plan;
    std::vector<int> words;
    for (int net : flop_nets) {
        const LayoutSlot &s = slots_[net];
        bool whole = true;
        for (int w = 0; w < s.nwords; ++w) {
            for (int mate : word_nets_[s.word_off + w])
                whole = whole && flopped[mate];
        }
        if (!whole) {
            plan.nets.push_back(net);
            continue;
        }
        for (int w = 0; w < s.nwords; ++w)
            words.push_back(s.word_off + w);
    }
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
    for (int w : words) {
        if (!plan.ranges.empty() &&
            plan.ranges.back().off + plan.ranges.back().nwords == w)
            ++plan.ranges.back().nwords;
        else
            plan.ranges.push_back({w, 1});
    }
    return plan;
}

} // namespace cmtl
