/**
 * @file
 * Regenerates Table 1 of the paper: the semantic categories covered
 * by the validation suite with the number of tests per category.
 *
 * The paper's suite has 94 tests, each potentially counted in several
 * categories; ours uses one file per category entry, so the per-
 * category counts are directly comparable (the paper's counts are
 * printed alongside).  Exits 1 when any category falls below the
 * paper's count, so the table doubles as a check (ctest
 * table1_categories).
 */
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "driver/suite.h"

namespace {

// Table 1 of the paper: category -> test count.
const std::vector<std::pair<std::string, int>> PAPER_TABLE1 = {
    {"Checking capability alignment in the memory", 10},
    {"Memory allocator interface (locals, globals, and heap)", 10},
    {"Capabilities produced by taking addresses of arrays and their "
     "elements", 2},
    {"Operations offseting pointers as in taking an address of array "
     "element at an index", 3},
    {"Assigning constants and values of capability-carrying types to "
     "capability-typed variables", 2},
    {"Issues related to calling convention: passing arguments, "
     "variable argument functions, etc.", 1},
    {"Implicit/explicit casts between capability-carrying types", 5},
    {"C const modifier and its effects on capabilities", 5},
    {"Equality between capability-carrying types", 10},
    {"Pointers to functions", 11},
    {"Pointers to global vs local variables", 6},
    {"Initialization of variables carrying capabilities", 4},
    {"Properties and definition of (u)intptr_t types", 19},
    {"Arithmetic operations on (u)intptr_t values", 9},
    {"Bitwise operations on (u)intptr_t values", 3},
    {"Semantics of CHERI C intrinsic functions (e.g, permission "
     "manipulation)", 16},
    {"Unforgeability enforcement for capabilities", 15},
    {"Capabilities encoding for Arm Morello architecture", 6},
    {"null pointers and NULL constant as capabilities", 6},
    {"ISO-legal pointers one-past an object's footprint and their "
     "bounds", 1},
    {"Out-of-bounds memory-access handling", 5},
    {"Effects of compiler optimisations", 10},
    {"Capability permissions: setting and enforcement", 5},
    {"pointer provenance tracking per [18]", 7},
    {"New ptraddr_t type definition and usage", 2},
    {"Implementation of pointer arithmetic on capabilities", 2},
    {"Conversion between pointer and integer types", 9},
    {"Relational comparison operators (e.g. <,>,<= and >=) for "
     "capabilities", 4},
    {"Issues related to potential non-representability of some "
     "combinations of capability fields", 6},
    {"Tests related to accessing capabilities in-memory "
     "representation", 9},
    {"Accessing memory via capabilities after the region has been "
     "deallocated", 5},
    {"Handling of (un)signed integer types in casts, accessing "
     "capability fields, and intrinsics", 5},
    {"Standard C library functions handling of capabilities", 6},
    {"Sub-objects bound enforcement via capabilities", 3},
};

} // namespace

int
main()
{
    using namespace cherisem::driver;
    std::vector<SuiteTest> tests = loadSuite(defaultSuiteDir());
    std::map<std::string, int> ours;
    for (const SuiteTest &t : tests)
        ++ours[t.category];

    printf("Table 1: summary of the tests comparing CHERI C "
           "implementations\n");
    printf("(paper count vs this reproduction's count per "
           "category)\n\n");
    printf("%5s %5s  %s\n", "paper", "ours", "Description");
    printf("%5s %5s  %s\n", "-----", "----", "-----------");
    int paper_total = 0;
    int ours_total = 0;
    int matched = 0;
    for (const auto &[cat, paper_n] : PAPER_TABLE1) {
        int n = ours.count(cat) ? ours[cat] : 0;
        printf("%5d %5d  %.70s\n", paper_n, n, cat.c_str());
        paper_total += paper_n;
        ours_total += n;
        if (n >= paper_n)
            ++matched;
        else
            fprintf(stderr, "table1: %d < %d tests for \"%s\"\n", n,
                    paper_n, cat.c_str());
        ours.erase(cat);
    }
    for (const auto &[cat, n] : ours)
        printf("%5s %5d  %.70s (extra)\n", "-", n, cat.c_str());
    printf("\ncategory entries: paper %d, ours %d; categories met: "
           "%d/%zu\n",
           paper_total, ours_total, matched, PAPER_TABLE1.size());
    printf("suite files: %zu (the paper's 94 tests count one test in "
           "several categories;\nthis suite uses one file per entry)\n",
           tests.size());
    return matched == static_cast<int>(PAPER_TABLE1.size()) ? 0 : 1;
}
