#include "attack/coverage.h"

#include <fstream>
#include <map>
#include <sstream>

#include "driver/interpreter.h"
#include "driver/suite.h"
#include "obs/sinks.h"
#include "support/format.h"

namespace cherisem::attack {

namespace {

/** Short allocator tag for grid names. */
const char *
allocTag(mem::HeapAllocatorKind k)
{
    return k == mem::HeapAllocatorKind::Sizeclass ? "sizeclass"
                                                  : "firstfit";
}

std::string
readFile(const std::string &path, bool *ok)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *ok = false;
        return "";
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    *ok = true;
    return ss.str();
}

/** Evaluate one (attack, column) cell. */
CoverageCell
runCell(const std::string &attackId, const std::string &column,
        const std::string &source, const std::string &path,
        driver::Profile profile, const Expectation &exp)
{
    CoverageCell cell;
    cell.attackId = attackId;
    cell.column = column;
    cell.expected = verdictString(exp.verdict);
    cell.detected = exp.detected();

    obs::RingBufferSink ring;
    profile.memConfig.traceSink = &ring;
    driver::RunResult res = driver::runSource(source, profile, path);
    cell.actual = res.summary();
    cell.verdictOk = !res.frontendError &&
        driver::outcomeMatches(res.outcome, cell.expected);

    std::vector<obs::TraceEvent> events = ring.snapshot();
    size_t missing = 0;
    std::vector<uint64_t> seqs =
        obs::matchEventSequence(events, exp.witnesses, &missing);
    if (exp.witnesses.empty()) {
        cell.witnessOk = true;
    } else if (seqs.empty()) {
        cell.witnessOk = false;
        cell.missingWitness =
            obs::eventPatternString(exp.witnesses[missing]);
    } else {
        cell.witnessOk = true;
        cell.witnessSeqs = std::move(seqs);
        for (const obs::EventPattern &p : exp.witnesses)
            cell.witnessEvents.push_back(obs::eventPatternString(p));
    }
    return cell;
}

} // namespace

std::vector<GridPoint>
coverageGrid()
{
    // Hardware-style bases per format; the revocation and allocator
    // axes are overlaid onto fresh copies.
    const driver::Profile *cc128 =
        driver::findProfile("clang-morello-O0");
    driver::Profile cc64base = *driver::findProfile("cheriot-temporal");
    cc64base.memConfig.revoke = revoke::RevokeConfig{};

    const revoke::RevokePolicy policies[] = {
        revoke::RevokePolicy::Off,
        revoke::RevokePolicy::Eager,
        revoke::RevokePolicy::Quarantine,
        revoke::RevokePolicy::Manual,
    };
    const mem::HeapAllocatorKind allocs[] = {
        mem::HeapAllocatorKind::FirstFit,
        mem::HeapAllocatorKind::Sizeclass,
    };

    std::vector<GridPoint> grid;
    for (const char *fmt : {"cc128", "cc64"}) {
        const driver::Profile &base =
            std::string(fmt) == "cc128" ? *cc128 : cc64base;
        for (revoke::RevokePolicy policy : policies) {
            for (mem::HeapAllocatorKind alloc : allocs) {
                GridPoint gp;
                gp.format = fmt;
                gp.policy = policy;
                gp.alloc = alloc;
                gp.name = strPrintf(
                    "%s/%s/%s", fmt, revoke::revokePolicyName(policy),
                    allocTag(alloc));
                gp.profile = base;
                gp.profile.name = gp.name;
                gp.profile.description =
                    "coverage grid point (" + gp.name + ")";
                gp.profile.memConfig.revoke.policy = policy;
                if (policy == revoke::RevokePolicy::Quarantine ||
                    policy == revoke::RevokePolicy::Manual) {
                    // Small thresholds so the suite's 8192-byte churn
                    // crosses a quarantine epoch (Manual ignores them
                    // but keeps the same config for symmetry).
                    gp.profile.memConfig.revoke.quarantineMaxBytes =
                        4096;
                    gp.profile.memConfig.revoke.quarantineMaxRegions =
                        8;
                }
                gp.profile.memConfig.heapAllocator = alloc;
                grid.push_back(std::move(gp));
            }
        }
    }
    return grid;
}

CoverageReport
runCoverage(const CoverageOptions &opts)
{
    CoverageReport report;
    const std::string dir =
        opts.suiteDir.empty() ? driver::defaultSuiteDir()
                              : opts.suiteDir;

    std::vector<GridPoint> grid = coverageGrid();
    for (const GridPoint &gp : grid)
        report.columns.push_back(gp.name);
    if (opts.sentinels) {
        report.columns.push_back("reference");
        report.columns.push_back("subobject");
    }

    const driver::Profile &ref = driver::referenceProfile();
    const driver::Profile *sub =
        driver::findProfile("clang-morello-subobject-safe");

    std::map<std::string, FamilyCoverage> families;
    for (const AttackPattern &p : attackCatalog()) {
        FamilyCoverage &fam = families[attackFamilyName(p.family)];
        fam.family = attackFamilyName(p.family);

        bool ok = false;
        const std::string path = dir + "/" + p.file;
        const std::string source = readFile(path, &ok);
        if (!ok) {
            report.errors.push_back("cannot read " + path);
            continue;
        }

        auto record = [&](CoverageCell cell) {
            if (!cell.ok())
                report.mismatches++;
            else if (cell.detected)
                fam.detectedAt.push_back(cell.attackId + " @ " +
                                         cell.column);
            report.cells.push_back(std::move(cell));
        };

        for (const GridPoint &gp : grid)
            record(runCell(p.id, gp.name, source, path, gp.profile,
                           p.forPolicy(gp.policy)));
        if (opts.sentinels) {
            record(runCell(p.id, "reference", source, path, ref,
                           p.reference));
            if (sub)
                record(runCell(p.id, "subobject", source, path, *sub,
                               p.subobject));
        }
    }

    for (auto &[name, fam] : families) {
        fam.detected = !fam.detectedAt.empty();
        if (!fam.detected)
            report.undetectedFamilies++;
        report.families.push_back(fam);
    }
    return report;
}

std::string
coverageJson(const CoverageReport &r)
{
    std::ostringstream out;
    out << "{\n  \"schema\": \"cherisem-coverage-v1\",\n";

    out << "  \"columns\": [";
    for (size_t i = 0; i < r.columns.size(); i++)
        out << (i ? ", " : "") << '"' << obs::jsonEscape(r.columns[i])
            << '"';
    out << "],\n";

    out << "  \"attacks\": [\n";
    const auto &catalog = attackCatalog();
    for (size_t i = 0; i < catalog.size(); i++) {
        const AttackPattern &p = catalog[i];
        out << "    {\"id\": \"" << obs::jsonEscape(p.id)
            << "\", \"file\": \"" << obs::jsonEscape(p.file)
            << "\", \"family\": \"" << attackFamilyName(p.family)
            << "\", \"variant\": \"" << obs::jsonEscape(p.variant)
            << "\"}" << (i + 1 < catalog.size() ? "," : "") << "\n";
    }
    out << "  ],\n";

    out << "  \"cells\": [\n";
    for (size_t i = 0; i < r.cells.size(); i++) {
        const CoverageCell &c = r.cells[i];
        out << "    {\"attack\": \"" << obs::jsonEscape(c.attackId)
            << "\", \"column\": \"" << obs::jsonEscape(c.column)
            << "\", \"expected\": \"" << obs::jsonEscape(c.expected)
            << "\", \"actual\": \"" << obs::jsonEscape(c.actual)
            << "\", \"verdict_ok\": " << (c.verdictOk ? "true" : "false")
            << ", \"witness_ok\": " << (c.witnessOk ? "true" : "false")
            << ", \"detected\": " << (c.detected ? "true" : "false");
        if (!c.witnessSeqs.empty()) {
            out << ", \"witnesses\": [";
            for (size_t j = 0; j < c.witnessSeqs.size(); j++) {
                out << (j ? ", " : "") << "{\"event\": \""
                    << obs::jsonEscape(c.witnessEvents[j])
                    << "\", \"seq\": " << c.witnessSeqs[j] << "}";
            }
            out << "]";
        }
        if (!c.missingWitness.empty())
            out << ", \"missing_witness\": \""
                << obs::jsonEscape(c.missingWitness) << '"';
        out << "}" << (i + 1 < r.cells.size() ? "," : "") << "\n";
    }
    out << "  ],\n";

    out << "  \"families\": [\n";
    for (size_t i = 0; i < r.families.size(); i++) {
        const FamilyCoverage &f = r.families[i];
        out << "    {\"family\": \"" << obs::jsonEscape(f.family)
            << "\", \"detected\": " << (f.detected ? "true" : "false")
            << ", \"detected_at\": [";
        for (size_t j = 0; j < f.detectedAt.size(); j++)
            out << (j ? ", " : "") << '"'
                << obs::jsonEscape(f.detectedAt[j]) << '"';
        out << "]}" << (i + 1 < r.families.size() ? "," : "") << "\n";
    }
    out << "  ],\n";

    out << "  \"summary\": {\"attacks\": " << catalog.size()
        << ", \"columns\": " << r.columns.size()
        << ", \"cells\": " << r.cells.size()
        << ", \"mismatches\": " << r.mismatches
        << ", \"undetected_families\": " << r.undetectedFamilies
        << ", \"errors\": " << r.errors.size()
        << ", \"ok\": " << (r.ok() ? "true" : "false") << "}\n";
    out << "}\n";
    return out.str();
}

std::string
coverageMarkdown(const CoverageReport &r)
{
    // Cell legend: "UB" detected as expected, "-" undetected by
    // design (residual gap / window), "XX" mismatch.
    std::map<std::pair<std::string, std::string>, const CoverageCell *>
        byKey;
    for (const CoverageCell &c : r.cells)
        byKey[{c.attackId, c.column}] = &c;

    std::ostringstream out;
    out << "| attack |";
    for (const std::string &col : r.columns)
        out << " " << col << " |";
    out << "\n|---|";
    for (size_t i = 0; i < r.columns.size(); i++)
        out << "---|";
    out << "\n";
    for (const AttackPattern &p : attackCatalog()) {
        out << "| " << p.id << " |";
        for (const std::string &col : r.columns) {
            auto it = byKey.find({p.id, col});
            if (it == byKey.end()) {
                out << " ? |";
                continue;
            }
            const CoverageCell &c = *it->second;
            if (!c.ok())
                out << " **XX** |";
            else if (c.detected)
                out << " UB |";
            else
                out << " - |";
        }
        out << "\n";
    }
    out << "\nLegend: `UB` attack trapped with its expected witness "
           "chain; `-` undetected by design (residual gap or "
           "quarantine window); `XX` divergence from the catalog's "
           "pinned expectation.\n";
    return out.str();
}

} // namespace cherisem::attack
