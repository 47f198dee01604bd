/**
 * @file
 * The one main every reproduction bench shares.
 *
 * Every bench binary (a) runs its sweep points through the parallel
 * experiment engine (src/exp) and prints its paper table/figure
 * reproduction, then (b) writes the structured results as JSON when
 * --json PATH is given.  DDC_BENCH_MAIN wires that order up.
 *
 * A bench takes the engine flags of exp::parseSessionArgs (--jobs N,
 * --json PATH, --timing, --no-skip, ...; README.md lists them) and
 * nothing else: any other argument is an error, reported before
 * anything runs.
 *
 * The perf_* benches measure the simulator itself, so they force
 * --timing (and the --profile phase split) on at compile time.
 */

#ifndef DDC_BENCH_COMMON_HH
#define DDC_BENCH_COMMON_HH

#include <iostream>

#include "exp/session.hh"
#include "obs/recorder.hh"

namespace ddc {
namespace bench {

/** Host measurements a bench binary forces on. */
enum class Forced
{
    Nothing,
    /** As if --timing were given. */
    Timing,
    /** As if --timing and --profile were given. */
    TimingAndProfile,
};

/**
 * Parse the engine flags, reject anything else, print the
 * reproduction through @p print_reproduction and write the JSON.
 * @return The process exit code.
 */
inline int
benchMain(int argc, char **argv,
          void (*print_reproduction)(exp::Session &),
          Forced forced = Forced::Nothing)
{
    auto options = exp::parseSessionArgs(argc, argv);
    if (argc > 1) {
        std::cerr << argv[0] << ": unknown argument " << argv[1] << "\n";
        return 1;
    }
    if (forced != Forced::Nothing)
        options.timing = true;
    if (forced == Forced::TimingAndProfile)
        obs::setPhaseProfilingEnabled(true);
    exp::Session session(options);
    print_reproduction(session);
    std::cout.flush();
    if (!session.writeJson()) {
        std::cerr << argv[0] << ": cannot write " << options.json_path
                  << "\n";
        return 1;
    }
    return 0;
}

} // namespace bench
} // namespace ddc

/** main() for a bench: DDC_BENCH_MAIN(printReproduction[, forced]). */
#define DDC_BENCH_MAIN(...)                                             \
    int                                                                 \
    main(int argc, char **argv)                                         \
    {                                                                   \
        return ddc::bench::benchMain(argc, argv, __VA_ARGS__);          \
    }

#endif // DDC_BENCH_COMMON_HH
