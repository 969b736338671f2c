#include "jit_cpp.h"

#include <dirent.h>
#include <dlfcn.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

namespace cmtl {

namespace {

double
seconds()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch()).count();
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/**
 * Cache format version. Bump whenever the key scheme or the on-disk
 * layout changes: the version is part of the file name, so entries
 * written under an older scheme stop matching without any cleanup.
 */
constexpr const char *kCacheFormatVersion = "v2";

/** Base flags; the paper's "relatively fast -O1 optimization level". */
constexpr const char *kBaseFlags = "-O1 -shared -fPIC";

/** FNV-1a; good enough for a build cache key. */
std::string
fnvHash(const std::string &text)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    std::ostringstream os;
    os << std::hex << h;
    return os.str();
}

int
runCommand(const std::string &cmd)
{
    return std::system(cmd.c_str());
}

/** Single-quote @p path for POSIX sh ('\'' escapes embedded quotes). */
std::string
shellQuote(const std::string &path)
{
    std::string out = "'";
    for (char c : path) {
        if (c == '\'')
            out += "'\\''";
        else
            out += c;
    }
    out += "'";
    return out;
}

/** mkdir -p: create @p path and all missing parents. */
bool
makeDirs(const std::string &path)
{
    if (path.empty())
        return false;
    std::string partial;
    size_t pos = 0;
    while (pos < path.size()) {
        size_t next = path.find('/', pos);
        if (next == std::string::npos)
            next = path.size();
        partial = path.substr(0, next);
        if (!partial.empty() && ::mkdir(partial.c_str(), 0755) != 0 &&
            errno != EEXIST) {
            return false;
        }
        pos = next + 1;
    }
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

} // namespace

CppJitLibrary::~CppJitLibrary()
{
    if (handle_)
        ::dlclose(handle_);
}

CppJitLibrary::CppJitLibrary(CppJitLibrary &&other) noexcept
    : handle_(other.handle_), units_(std::move(other.units_)),
      blocks_(std::move(other.blocks_)),
      cache_hit_(other.cache_hit_), compile_seconds_(other.compile_seconds_),
      wrap_seconds_(other.wrap_seconds_)
{
    other.handle_ = nullptr;
}

CppJitLibrary &
CppJitLibrary::operator=(CppJitLibrary &&other) noexcept
{
    if (this != &other) {
        if (handle_)
            ::dlclose(handle_);
        handle_ = other.handle_;
        units_ = std::move(other.units_);
        blocks_ = std::move(other.blocks_);
        cache_hit_ = other.cache_hit_;
        compile_seconds_ = other.compile_seconds_;
        wrap_seconds_ = other.wrap_seconds_;
        other.handle_ = nullptr;
    }
    return *this;
}

CppJit::CppJit(std::string cache_dir, bool use_cache,
               std::string extra_flags)
    : cache_dir_(std::move(cache_dir)), use_cache_(use_cache),
      extra_flags_(std::move(extra_flags))
{
    // CMTL_JIT_CACHE may name a nested path; create all parents and
    // fail loudly (with errno context) instead of letting every later
    // compile die on an unwritable scratch file.
    if (!makeDirs(cache_dir_)) {
        throw std::runtime_error("SimJIT: cannot create cache dir '" +
                                 cache_dir_ + "': " +
                                 std::strerror(errno));
    }
}

std::string
CppJit::defaultCacheDir()
{
    if (const char *env = std::getenv("CMTL_JIT_CACHE"))
        return env;
    return "/tmp/cmtl-jit-" + std::to_string(::getuid());
}

bool
CppJit::compilerAvailable()
{
    static int cached = -1;
    if (cached < 0)
        cached = runCommand("g++ --version > /dev/null 2>&1") == 0 ? 1 : 0;
    return cached == 1;
}

std::string
CppJit::compilerVersion()
{
    // -dumpfullversion prints the full x.y.z on g++ >= 7 but nothing
    // on some older releases; -dumpversion backstops it. Queried once.
    static std::string cached = [] {
        std::string out;
        if (FILE *pipe = ::popen(
                "g++ -dumpfullversion -dumpversion 2>/dev/null", "r")) {
            char buf[128];
            while (::fgets(buf, sizeof(buf), pipe))
                out += buf;
            ::pclose(pipe);
        }
        while (!out.empty() && (out.back() == '\n' || out.back() == ' '))
            out.pop_back();
        return out.empty() ? std::string("unknown") : out;
    }();
    return cached;
}

std::string
CppJit::flagString() const
{
    return extra_flags_.empty() ? std::string(kBaseFlags)
                                : std::string(kBaseFlags) + " " +
                                      extra_flags_;
}

uint64_t
CppJit::cacheMaxBytes()
{
    if (const char *env = std::getenv("CMTL_JIT_CACHE_MAX_MB")) {
        char *end = nullptr;
        unsigned long long mb = std::strtoull(env, &end, 10);
        if (end != env)
            return static_cast<uint64_t>(mb) * 1024 * 1024;
    }
    return 256ull * 1024 * 1024;
}

void
CppJit::evictCache(const std::string &dir, uint64_t max_bytes,
                   const std::string &keep)
{
    struct Entry
    {
        std::string path;
        uint64_t size;
        time_t mtime;
    };
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return;
    std::vector<Entry> entries;
    uint64_t total = 0;
    while (struct dirent *e = ::readdir(d)) {
        std::string name = e->d_name;
        // Only published libraries count; in-progress scratch files
        // (.build.*) belong to a live compile and are left alone.
        if (name.rfind("cmtl_", 0) != 0 || name.size() < 4 ||
            name.compare(name.size() - 3, 3, ".so") != 0)
            continue;
        std::string path = dir + "/" + name;
        struct stat st;
        if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode))
            continue;
        entries.push_back(
            {path, static_cast<uint64_t>(st.st_size), st.st_mtime});
        total += static_cast<uint64_t>(st.st_size);
    }
    ::closedir(d);
    if (total <= max_bytes)
        return;
    // Oldest mtime first = least recently used (hits touch the file).
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.mtime != b.mtime ? a.mtime < b.mtime
                                            : a.path < b.path;
              });
    for (const Entry &en : entries) {
        if (total <= max_bytes)
            break;
        if (en.path == keep)
            continue;
        if (::unlink(en.path.c_str()) == 0)
            total -= en.size;
    }
}

std::string
CppJit::cachePathFor(const std::string &source) const
{
    // The key covers everything that determines the produced binary:
    // format version, compiler version, exact flags, source text.
    std::string key = std::string(kCacheFormatVersion) + "\n" +
                      compilerVersion() + "\n" + flagString() + "\n" +
                      source;
    return cache_dir_ + "/cmtl_" + kCacheFormatVersion + "_" +
           fnvHash(key) + ".so";
}

CppJitLibrary
CppJit::compile(const std::string &source, int ngroups,
                CppJitLibrary::Abi abi)
{
    CppJitLibrary lib;
    std::string so_path = cachePathFor(source);
    std::string base = so_path.substr(0, so_path.size() - 3);

    double t0 = seconds();
    if (use_cache_ && fileExists(so_path)) {
        lib.cache_hit_ = true;
        // Refresh the entry's mtime: eviction is LRU over mtimes.
        ::utimes(so_path.c_str(), nullptr);
    } else {
        // Scratch paths are unique per compile (pid + process-wide
        // counter): two simulators compiling the same source
        // concurrently — same process or not — must not clobber each
        // other's in-progress files. Only the final rename below is
        // shared, and rename is atomic.
        static std::atomic<uint64_t> compile_seq{0};
        std::string scratch = base + ".build." +
                              std::to_string(::getpid()) + "." +
                              std::to_string(compile_seq.fetch_add(1));
        std::string cc_path = scratch + ".cc";
        std::string log_path = scratch + ".log";
        std::string tmp_so = scratch + ".so";
        {
            std::ofstream out(cc_path);
            if (!out)
                throw std::runtime_error("SimJIT: cannot write " + cc_path);
            out << source;
        }
        // Quote every interpolated path: the cache dir comes from the
        // environment and may contain spaces or shell metacharacters.
        std::string cmd = "g++ " + flagString() + " -o " +
                          shellQuote(tmp_so) + " " + shellQuote(cc_path) +
                          " 2> " + shellQuote(log_path);
        if (runCommand(cmd) != 0) {
            throw std::runtime_error(
                "SimJIT: compiler failed; see " + log_path);
        }
        // Atomic publish so concurrent compiles share the cache safely.
        if (::rename(tmp_so.c_str(), so_path.c_str()) != 0)
            throw std::runtime_error("SimJIT: cannot publish " + so_path);
        std::remove(cc_path.c_str());
        std::remove(log_path.c_str());
        // Keep the cache directory bounded (it otherwise grows by one
        // .so per distinct design/flag/compiler combination, forever).
        evictCache(cache_dir_, cacheMaxBytes(), so_path);
    }
    lib.compile_seconds_ = seconds() - t0;

    double t1 = seconds();
    lib.handle_ = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!lib.handle_)
        throw std::runtime_error(std::string("SimJIT: dlopen failed: ") +
                                 ::dlerror());
    for (int k = 0; k < ngroups; ++k) {
        std::string sym = "cmtl_grp_" + std::to_string(k);
        void *fn = ::dlsym(lib.handle_, sym.c_str());
        if (!fn)
            throw std::runtime_error("SimJIT: missing symbol " + sym);
        if (abi == CppJitLibrary::Abi::Block)
            lib.blocks_.push_back(
                reinterpret_cast<CppJitLibrary::BlockFn>(fn));
        else
            lib.units_.push_back(
                reinterpret_cast<CppJitLibrary::UnitFn>(fn));
    }
    lib.wrap_seconds_ = seconds() - t1;
    return lib;
}

std::vector<CppJitLibrary>
CppJit::compileMany(const std::vector<std::string> &sources,
                    const std::vector<int> &ngroups,
                    CppJitLibrary::Abi abi)
{
    if (sources.size() != ngroups.size())
        throw std::logic_error(
            "SimJIT: compileMany sources/ngroups size mismatch");
    std::vector<CppJitLibrary> libs;
    libs.reserve(sources.size());
    for (size_t i = 0; i < sources.size(); ++i)
        libs.push_back(compile(sources[i], ngroups[i], abi));
    return libs;
}

} // namespace cmtl
