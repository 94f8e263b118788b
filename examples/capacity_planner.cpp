// Capacity planner: "how much delay buys how much bandwidth?"
//
// The Fig.-1 trade-off as a planning tool: sweep the guaranteed start-up
// delay and report the off-line optimal and on-line DG bandwidth, plus the
// peak channel requirement, then pick the smallest delay that fits a
// channel budget. This is the Section-5 argument in executable form: "by
// increasing the guaranteed delay, we can ensure that we never go over
// the fixed maximum bandwidth and still never have to decline a client
// request."
//
// Run: ./capacity_planner --budget=12 --horizon=100
#include <cstdlib>
#include <iostream>
#include <vector>

#include "sim/experiment.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace smerge;
  using namespace smerge::sim;

  util::ArgParser args("capacity_planner: delay vs bandwidth trade-off");
  args.add_int("budget", 12, "peak channel budget for one media object");
  args.add_double("horizon", 100.0, "planning horizon in media lengths");
  try {
    if (!args.parse(argc, argv)) return EXIT_SUCCESS;
    const auto budget = args.get_int("budget");
    const double horizon = args.get_double("horizon");

    const std::vector<double> delays{0.001, 0.002, 0.005, 0.01,
                                     0.02,  0.05,  0.10,  0.15};
    util::TextTable table({"delay (% media)", "off-line streams", "on-line streams",
                           "on/off ratio", "peak channels (DG)"});
    double chosen = -1.0;
    Index chosen_peak = 0;
    for (const double d : delays) {
      const BandwidthResult off = run_offline_optimal(d, horizon);
      const BandwidthResult on = run_delay_guaranteed(d, horizon);
      table.add_row(util::format_fixed(100.0 * d, 1), off.streams_served,
                    on.streams_served, on.streams_served / off.streams_served,
                    on.peak_concurrency);
      if (chosen < 0.0 && on.peak_concurrency <= budget) {
        chosen = d;
        chosen_peak = on.peak_concurrency;
      }
    }
    std::cout << table.to_string() << '\n';

    if (chosen < 0.0) {
      std::cout << "No swept delay fits a budget of " << budget
                << " channels; increase the delay beyond 15%.\n";
    } else {
      std::cout << "Smallest swept delay meeting the " << budget
                << "-channel budget: " << 100.0 * chosen << "% of the media ("
                << chosen_peak << " peak channels). The server never declines a "
                << "request at this delay.\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
