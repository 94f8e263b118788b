// Tests for the O(1) receiving-program lookup table and for serving
// Delay Guaranteed through it (Section 4.2's simplicity claim,
// executable).
#include "online/program_table.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "schedule/playback.h"
#include "server/server_core.h"

namespace smerge {
namespace {

TEST(ProgramTable, MatchesPerClientPrograms) {
  // Table entries must equal freshly computed programs for every position
  // of a full block.
  const DelayGuaranteedOnline policy(15);
  const ProgramTable table(policy);
  ASSERT_EQ(table.block_size(), 8);
  std::vector<MergeTree> trees;
  trees.push_back(policy.template_tree());
  const MergeForest block(15, std::move(trees));
  for (Index a = 0; a < 8; ++a) {
    const ReceivingProgram fresh(block, a);
    EXPECT_EQ(table.lookup(a).blocks, fresh.receptions()) << "a=" << a;
    EXPECT_EQ(table.lookup(a).path, fresh.path()) << "a=" << a;
  }
}

TEST(ProgramTable, AbsoluteProgramsShiftByBlock) {
  const DelayGuaranteedOnline policy(15);
  const ProgramTable table(policy);
  // Slot 23 = block 2 (base 16) position 7: the client-H program shifted.
  const std::vector<Reception> abs = table.program_at(23);
  ASSERT_EQ(abs.size(), 3u);
  EXPECT_EQ(abs[0], (Reception{23, 1, 2}));
  EXPECT_EQ(abs[1], (Reception{21, 3, 9}));
  EXPECT_EQ(abs[2], (Reception{16, 10, 15}));
}

TEST(ProgramTable, AbsoluteProgramsMatchForestPrograms) {
  // Against the ground truth on a multi-block DG forest, including the
  // final partial block — the table is static, programs never change.
  const DelayGuaranteedOnline policy(15);
  const ProgramTable table(policy);
  const Index n = 21;  // 2 full blocks + partial block of 5
  const MergeForest forest = policy.forest(n);
  for (Index t = 0; t < n; ++t) {
    const ReceivingProgram fresh(forest, t);
    EXPECT_EQ(table.program_at(t), fresh.receptions()) << "t=" << t;
  }
}

TEST(ProgramTable, LookupValidation) {
  const ProgramTable table{DelayGuaranteedOnline(15)};
  EXPECT_THROW((void)table.lookup(-1), std::out_of_range);
  EXPECT_THROW((void)table.lookup(8), std::out_of_range);
  EXPECT_THROW(table.program_at(-1), std::out_of_range);
}

// Serving DG: DelayGuaranteedPolicy on a generic ServerCore admits a
// client to slot `dg_slot_of(arrival, delay)`, whose receiving program
// is the table entry at `slot % block_size`.

TEST(DgServing, WaitIsAlwaysWithinOneSlot) {
  DelayGuaranteedPolicy policy;
  server::ServerCoreConfig config;
  config.delay = 0.01;
  server::ServerCore core(config, policy);
  const ProgramTable table{DelayGuaranteedOnline(100)};
  double t = 0.0;
  for (int i = 0; i < 500; ++i) {
    t += 0.0137;  // irrational-ish stride hits many slot phases
    const server::Ticket ticket = core.admit(0, t);
    EXPECT_GT(ticket.wait, -1e-12);
    EXPECT_LE(ticket.wait, 0.01 + 1e-12);
    const Index slot = dg_slot_of(t, 0.01);
    EXPECT_NEAR(ticket.playback_start, static_cast<double>(slot + 1) * 0.01,
                1e-12);
    EXPECT_FALSE(table.lookup(slot % table.block_size()).blocks.empty());
  }
  EXPECT_EQ(core.live_stats().admitted, 500);
}

TEST(DgServing, BoundaryArrivalJoinsStartingStream) {
  DelayGuaranteedPolicy policy;
  server::ServerCoreConfig config;
  config.delay = 0.01;
  server::ServerCore core(config, policy);
  const server::Ticket ticket = core.admit(0, 0.05);  // exactly slot 4's end
  EXPECT_EQ(dg_slot_of(0.05, 0.01), 4);
  EXPECT_NEAR(ticket.wait, 0.0, 1e-9);
}

TEST(DgServing, ServedProgramsPlayBackCorrectly) {
  // End to end: admit clients over three blocks, then verify each
  // client's table program against the actual transmission schedule.
  const Index L = 15;
  DelayGuaranteedPolicy policy;
  server::ServerCoreConfig config;
  config.delay = 1.0 / static_cast<double>(L);
  server::ServerCore core(config, policy);
  const DelayGuaranteedOnline dg(L);
  const ProgramTable table(dg);
  const Index horizon = 20;
  const MergeForest forest = dg.forest(horizon);
  const StreamSchedule schedule(forest);
  for (double t = 0.4; t < static_cast<double>(horizon); t += 1.7) {
    const server::Ticket ticket = core.admit(0, t * config.delay);
    const Index slot = dg_slot_of(ticket.arrival, config.delay);
    EXPECT_NEAR(ticket.playback_start, static_cast<double>(slot + 1) * config.delay,
                1e-12);
    const ReceivingProgram fresh(forest, slot);
    EXPECT_EQ(table.program_at(slot), fresh.receptions()) << "slot=" << slot;
    const ClientReport report = verify_client(schedule, fresh, Model::kReceiveTwo);
    EXPECT_TRUE(report.ok) << report.error;
  }
}

}  // namespace
}  // namespace smerge
