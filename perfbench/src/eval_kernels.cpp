/**
 * @file
 * eval_kernels: long-running hand-written kernels (perfbench/kernels)
 * x four profiles, through frontend::parse -> sema::analyze ->
 * corelang::optimize -> corelang::evaluate.  Evaluation is nearly all
 * of the time, so this is where the evaluator, the memory model, the
 * allocator and revocation show.
 *
 * Each kernel has a size N and a data constant K (its #define lines).
 * The seed draws, per (kernel, profile), five size offsets d in
 * [0, 5%) used as antithetic pairs N(1+d), N(1-d) -- so the work of a
 * pass stays put across seeds -- and a K per item, which changes the
 * result but not the control flow.  The reference exit code of every
 * item comes from a native C++ transcription of its kernel below; the
 * transcription must reproduce the file's hand-computed @EXPECT for
 * the N and K written in the file.
 */
#include <cmath>
#include <functional>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>

#include "one_shot.h"

namespace perfbench {

using namespace cherisem;

namespace {

int
refArith(int n, int k)
{
    int acc = k;
    for (int i = 0; i < n; i++)
        acc = (acc * 31 + i) % 65521;
    return acc % 256;
}

int
refChase(int n, int k)
{
    std::vector<int> value(n), next(n);
    for (int i = 0; i < n; i++) {
        value[i] = (i * k) % 97;
        next[i] = (i * 37 + 11) % n;
    }
    int sum = 0, at = 0;
    for (int s = 0; s < 4 * n; s++) {
        sum = (sum + value[at]) % 65521;
        at = next[at];
    }
    return sum % 256;
}

int
refIntptr(int n, int k)
{
    int a[64];
    for (int i = 0; i < 64; i++)
        a[i] = (i * k) % 101;
    int sum = 0;
    for (int i = 0; i < n; i++)
        sum = (sum + a[(i * 13) % 64]) % 65521;
    return sum % 256;
}

int
refChurn(int n, int k)
{
    int vals[16];
    for (int i = 0; i < 16; i++)
        vals[i] = (i * k) % 53;
    int slotVal[8], slotKey[8];
    bool used[8] = {};
    int sum = 0;
    for (int i = 0; i < n; i++) {
        int s = i % 8;
        if (used[s])
            sum = (sum + slotVal[s] + slotKey[s]) % 65521;
        used[s] = true;
        slotVal[s] = vals[i % 16];
        slotKey[s] = i;
    }
    for (int s = 0; s < 8; s++)
        sum = (sum + slotVal[s] + slotKey[s]) % 65521;
    return sum % 256;
}

int
refCaps(int n, int k)
{
    int buf[64];
    for (int i = 0; i < 64; i++)
        buf[i] = (i * k) % 89;
    int sum = 0;
    for (int i = 0; i < n; i++) {
        int j = (i * 7) % 60;
        sum = (sum + buf[j + 2] + buf[j + 1]) % 65521;
    }
    return sum % 256;
}

int
refRealloc(int n, int k)
{
    int prev = k, sum = 0;
    for (int i = 1; i < n; i++) {
        prev = (prev * 3 + i) % 1009;
        sum = (sum + prev) % 65521;
    }
    return sum % 256;
}

const std::map<std::string, std::function<int(int, int)>> kReferences = {
    {"arith", refArith}, {"chase", refChase},   {"intptr", refIntptr},
    {"churn", refChurn}, {"caps", refCaps},     {"realloc", refRealloc},
};

const char *const kKernels[] = {"arith", "chase", "intptr",
                                "churn", "caps",  "realloc"};
const char *const kProfiles[] = {"cerberus", "clang-morello-O0",
                                 "cheriot-temporal-quarantine",
                                 "clang-morello-O0-slab"};
constexpr int kPairs = 5; // 10 size variants per (kernel, profile)

struct Kernel
{
    std::string name;
    std::string source;
    int n = 0, k = 0;
    std::string expect;
};

/** The value of `// @TAG: value` or `#define NAME value`. */
std::string
field(const std::string &source, const std::string &prefix)
{
    std::istringstream in(source);
    std::string line;
    while (std::getline(in, line))
        if (line.rfind(prefix, 0) == 0)
            return line.substr(prefix.size());
    return "";
}

/** @p source with its `#define NAME` line's value replaced. */
std::string
withDefine(const std::string &source, const std::string &name, int value)
{
    std::string key = "#define " + name + " ";
    size_t at = source.find(key);
    size_t eol = source.find('\n', at);
    return source.substr(0, at) + key + std::to_string(value) +
        source.substr(eol);
}

Kernel
loadKernel(const std::string &dir, const std::string &name)
{
    Kernel kn;
    kn.name = name;
    kn.source = readFile(dir + "/" + name + ".c");
    std::string n = field(kn.source, "#define N ");
    std::string k = field(kn.source, "#define K ");
    kn.expect = field(kn.source, "// @EXPECT: ");
    if (n.empty() || k.empty() || kn.expect.empty())
        throw std::runtime_error(name + ".c lacks #define N/K or @EXPECT");
    kn.n = std::stoi(n);
    kn.k = std::stoi(k);
    std::string ref =
        "exit " + std::to_string(kReferences.at(name)(kn.n, kn.k));
    if (ref != kn.expect)
        throw std::runtime_error(name + ".c: @EXPECT '" + kn.expect +
                                 "' but the native reference gives '" +
                                 ref + "'");
    return kn;
}

} // namespace

std::unique_ptr<Workload>
makeEvalKernels(const std::string &root, uint64_t seed)
{
    std::string dir = root + "/perfbench/kernels";
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> offset(0.0, 0.05);
    std::uniform_int_distribution<int> constant(3, 99);
    std::vector<OneShotItem> items;
    for (const char *name : kKernels) {
        Kernel kn = loadKernel(dir, name);
        for (const char *profileName : kProfiles) {
            const driver::Profile *p = driver::findProfile(profileName);
            if (!p)
                throw std::runtime_error(std::string("no profile ") +
                                         profileName);
            for (int pair = 0; pair < kPairs; ++pair) {
                double d = offset(rng);
                for (double sign : {1.0, -1.0}) {
                    int n = static_cast<int>(
                        std::lround(kn.n * (1.0 + sign * d)));
                    int k = constant(rng);
                    OneShotItem it;
                    it.source =
                        withDefine(withDefine(kn.source, "N", n), "K", k);
                    it.filename = kn.name + ".c";
                    it.profile = p;
                    it.expect = "exit " +
                        std::to_string(kReferences.at(kn.name)(n, k));
                    items.push_back(std::move(it));
                }
            }
        }
    }
    return makeOneShot(std::move(items), OneShotEntry::Layers);
}

} // namespace perfbench
