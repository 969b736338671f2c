/**
 * @file
 * The SimJIT compile/wrap stage: turn emitted C++ into callable code.
 *
 * Mirrors PyMTL's SimJIT pipeline: the generated source is compiled
 * with the system C++ compiler into a shared library, loaded with
 * dlopen, and its entry points bound as function pointers. Compiled
 * libraries are cached on disk, the analog of SimJIT-RTL's translation
 * cache: a warm cache converts the (dominant) compile overhead into a
 * one-time cost.
 *
 * Cache key: FNV-1a over a cache-format version tag, the compiler
 * version (g++ -dumpfullversion -dumpversion), the exact flag string
 * and the source text. Hashing only the source would silently reuse a
 * stale .so after a toolchain upgrade or a flag change; folding all
 * four in makes every such change miss cleanly. The format version is
 * also part of the file name (cmtl_v2_<hash>.so), so entries written
 * under an older scheme are never consulted again.
 */

#ifndef CMTL_CORE_JIT_CPP_H
#define CMTL_CORE_JIT_CPP_H

#include <cstdint>
#include <string>
#include <vector>

namespace cmtl {

/** A loaded specialized library. Owns the dlopen handle. */
class CppJitLibrary
{
  public:
    /** Whole-design (cpp-design) unit: `void cmtl_grp_<k>(uint64_t *w)`. */
    using UnitFn = void (*)(uint64_t *);
    /**
     * Per-block (cpp-block) group: `uint64_t cmtl_grp_<k>(uint64_t *w)`,
     * returning the changed-output mask (see ir_cpp.h).
     */
    using BlockFn = uint64_t (*)(uint64_t *);
    /** Which of the two signatures a library's entry points have. */
    enum class Abi { Unit, Block };

    CppJitLibrary() = default;
    ~CppJitLibrary();
    CppJitLibrary(CppJitLibrary &&other) noexcept;
    CppJitLibrary &operator=(CppJitLibrary &&other) noexcept;
    CppJitLibrary(const CppJitLibrary &) = delete;
    CppJitLibrary &operator=(const CppJitLibrary &) = delete;

    bool loaded() const { return handle_ != nullptr; }
    /** Entry points of an Abi::Unit library (empty otherwise). Callers
     *  bind them once, at load or tier swap, not per call. */
    const std::vector<UnitFn> &units() const { return units_; }
    /** Entry points of an Abi::Block library (empty otherwise). */
    const std::vector<BlockFn> &blocks() const { return blocks_; }

    bool cacheHit() const { return cache_hit_; }
    double compileSeconds() const { return compile_seconds_; }
    double wrapSeconds() const { return wrap_seconds_; }

  private:
    friend class CppJit;
    void *handle_ = nullptr;
    std::vector<UnitFn> units_;
    std::vector<BlockFn> blocks_;
    bool cache_hit_ = false;
    double compile_seconds_ = 0.0;
    double wrap_seconds_ = 0.0;
};

/** Compiles and loads emitted specializer source. */
class CppJit
{
  public:
    /**
     * Extra flags for whole-design (cpp-design) translation units.
     * Kept at the base -O1: the fused functions are huge and measured
     * -O2 compiles are an order of magnitude slower to build while
     * producing *slower* steady-state code on them.
     */
    static constexpr const char *kWholeDesignFlags = "";
    /**
     * @param cache_dir directory for generated sources and cached .so
     *                  files; created (with parents) if missing.
     *                  Throws std::runtime_error when it cannot be
     *                  created.
     * @param use_cache reuse a previously compiled library when the
     *                  cache key matches
     * @param extra_flags appended to the base compile flags; part of
     *                  the cache key
     */
    explicit CppJit(std::string cache_dir = defaultCacheDir(),
                    bool use_cache = true, std::string extra_flags = "");

    /** True if a working C++ compiler is available on this host. */
    static bool compilerAvailable();

    /** Directory honouring $CMTL_JIT_CACHE, else /tmp/cmtl-jit-<uid>. */
    static std::string defaultCacheDir();

    /** Compiler version string folded into the cache key. */
    static std::string compilerVersion();

    /** The full flag string used for compiles (base + extra). */
    std::string flagString() const;

    /** Cache file this source would hit (for tests/diagnostics). */
    std::string cachePathFor(const std::string &source) const;

    /**
     * Cache size cap in bytes: $CMTL_JIT_CACHE_MAX_MB, default 256
     * MiB. After every publish the cache is trimmed back under the
     * cap by deleting the least-recently-used entries (cache hits
     * refresh an entry's mtime).
     */
    static uint64_t cacheMaxBytes();

    /**
     * Delete least-recently-used cmtl_*.so entries from @p dir until
     * the total size fits @p max_bytes; @p keep is never deleted.
     * Exposed for the regression test.
     */
    static void evictCache(const std::string &dir, uint64_t max_bytes,
                           const std::string &keep);

    /**
     * Compile @p source (with @p ngroups cmtl_grp_<k> entry points)
     * and bind the group symbols with the signature @p abi names.
     * Throws std::runtime_error on compiler failure.
     */
    CppJitLibrary compile(const std::string &source, int ngroups,
                          CppJitLibrary::Abi abi);

    /**
     * Compile several independent translation units — one library per
     * source, each with its own cache entry, so per-unit cache hits
     * survive edits to the others. ParSim's cpp-design tier uses this
     * for its one-TU-per-island modules. @p ngroups must parallel
     * @p sources. Throws on the first failing compile.
     */
    std::vector<CppJitLibrary>
    compileMany(const std::vector<std::string> &sources,
                const std::vector<int> &ngroups, CppJitLibrary::Abi abi);

  private:
    std::string cache_dir_;
    bool use_cache_;
    std::string extra_flags_;
};

} // namespace cmtl

#endif // CMTL_CORE_JIT_CPP_H
