/**
 * @file
 * Implementation profiles: the axes on which the CHERI C
 * implementations compared in section 5 of the paper observably
 * differ, packaged as configurations of the same executable
 * semantics.
 *
 *  - "cerberus"             the abstract reference semantics (ghost
 *                           state, PNVI checks, strict ISO pointer
 *                           arithmetic, uninitialised reads flagged);
 *  - "clang-morello-O0/-O2" concrete Morello hardware semantics with
 *                           a high stack (Appendix A address range),
 *                           deterministic tag clearing, and — at O2 —
 *                           the section 3 optimisation passes;
 *  - "clang-riscv-O0/-O2"   the same on the CHERI-RISC-V address
 *                           layout;
 *  - "gcc-morello-O0/-O2"   a low-address allocator (< 2^31), which
 *                           is why the paper's Appendix A bitwise test
 *                           shows no invalidation under GCC;
 *  - "cerberus-cheriot"     the reference semantics over the 64-bit
 *                           CHERIoT-style capability format
 *                           (section 3.10 portability).
 */
#ifndef CHERISEM_DRIVER_PROFILES_H
#define CHERISEM_DRIVER_PROFILES_H

#include <string>
#include <vector>

#include "cap/cap_format.h"
#include "corelang/eval.h"
#include "corelang/optimize.h"

namespace cherisem::driver {

struct Profile
{
    std::string name;
    std::string description;
    mem::MemoryModel::Config memConfig;
    corelang::OptimizeOptions optims;
    cap::FormatStyle capFormat = cap::FormatStyle::Abstract;
    bool printProvenance = true;

    corelang::EvalOptions
    evalOptions() const
    {
        corelang::EvalOptions o;
        o.memConfig = memConfig;
        o.capFormat = capFormat;
        o.printProvenance = printProvenance;
        return o;
    }
};

/** All built-in profiles, reference first. */
const std::vector<Profile> &allProfiles();

/** Find by name; nullptr when unknown. */
const Profile *findProfile(const std::string &name);

/** The reference (Cerberus-style) profile. */
const Profile &referenceProfile();

} // namespace cherisem::driver

#endif // CHERISEM_DRIVER_PROFILES_H
