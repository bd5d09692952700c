/**
 * @file
 * Machine configuration: feature toggles for ablation studies plus the
 * memory-system configuration.
 */

#ifndef KCM_CORE_MACHINE_CONFIG_HH
#define KCM_CORE_MACHINE_CONFIG_HH

#include <cstdint>

#include "db/clause_store.hh"
#include "mem/fault_plan.hh"
#include "mem/mem_system.hh"

namespace kcm
{

/** Clock period of the prototype: 80 ns (§3). */
constexpr double cycleSeconds = 80e-9;

/**
 * Per-query resource limits, modelled on the §3.2.3 firmware's trap
 * handling: stack zones start at a quota and are grown by "firmware"
 * (charged a documented cycle cost) on StackOverflow traps up to a
 * ceiling; a cycle budget aborts a runaway query as a recoverable
 * Abort trap. Everything defaults to off, in which case the governor
 * adds no work to the execution loop (the soft-limit compare replaces
 * the old hard-limit compare one for one, and the budget check folds
 * into the pre-existing maxCycles test).
 */
struct ResourceGovernor
{
    /**
     * Per-query cycle budget (0 = unlimited). Unlike maxCycles —
     * which returns the informational RunStatus::CycleLimit —
     * exhausting the budget takes a TrapKind::Abort trap
     * (RunStatus::Trapped): a structured resource error. The trap is
     * taken at an instruction boundary, so raising the budget
     * (setCycleBudget) and calling resume() continues the query
     * exactly where it stopped.
     */
    uint64_t cycleBudget = 0;

    // Per-zone memory quotas in words (0 = whole zone, no quota).
    uint64_t globalQuotaWords = 0;  ///< global stack (heap)
    uint64_t localQuotaWords = 0;   ///< local (environment) stack
    uint64_t controlQuotaWords = 0; ///< choice-point stack
    uint64_t trailQuotaWords = 0;   ///< trail

    /** Serve StackOverflow traps by growing the faulting zone's
     *  quota (firmware behaviour). Off: the first quota crossing
     *  surfaces as RunStatus::Trapped. */
    bool growStacks = true;

    /** Words added to a stack zone per firmware growth. */
    uint64_t growthStepWords = 4096;

    /** Ceiling on a grown zone, as words from the zone start
     *  (0 = the zone's hard end). Growth past the ceiling fails and
     *  the overflow surfaces as RunStatus::Trapped. */
    uint64_t zoneCeilingWords = 0;

    /** Cycle cost charged per firmware stack growth (trap entry,
     *  zone-register update, return — documented in DESIGN.md). */
    unsigned stackGrowCycles = 50;

    /**
     * Aggregate resident-byte ceiling across the four data zones
     * (global, local, control, trail), accounted at zone-growth
     * boundaries (0 = unlimited). When set, every zone without an
     * explicit quota starts at a small initial quota so growth
     * boundaries exist, and a firmware growth that would push the
     * summed zone footprint past the ceiling raises
     * TrapKind::MemoryBudget — a catchable resource_error(memory).
     */
    uint64_t memoryBudgetBytes = 0;

    /** Whether any quota or budget is configured. */
    bool
    active() const
    {
        return cycleBudget || globalQuotaWords || localQuotaWords ||
               controlQuotaWords || trailQuotaWords ||
               memoryBudgetBytes;
    }
};

struct MachineConfig
{
    MemSystemConfig mem;

    /** Per-query resource limits (all off by default). */
    ResourceGovernor governor;

    /** Dynamic clause database: first-argument index ablations plus
     *  the simulated lookup/update cost model (db/clause_store.hh).
     *  Part of the config so the warm-image cache keys on it. */
    db::DynDbConfig dyndb;

    /** Deterministic fault-injection script (empty by default);
     *  applied at instruction boundaries by both execution cores. */
    FaultPlan faultPlan;

    /**
     * Delay choice point creation until the neck (§3.1.5). When off,
     * try_me_else/try push a full choice point immediately — the
     * standard-WAM baseline for the shallow-backtracking ablation.
     */
    bool shallowBacktracking = true;

    /** Charge cache-miss penalties to the cycle count (off = ideal
     *  memory, for separating engine effects from memory effects). */
    bool timeMemory = true;

    /**
     * Host-fast execution core: predecode the linked image into a
     * flat vector of DecodedInstr after load() and drive execution
     * from it with token-threaded dispatch (computed goto under
     * GCC/Clang). Purely a host-side optimization — the simulated
     * machine still fetches every word through the code cache and
     * prefetch pipeline, so cycles, instruction counts and cache
     * statistics are bit-identical to the decode-per-step oracle
     * path (off = the oracle, kept as the differential-testing
     * reference). Predecoding assumes the code image is static; the
     * incremental-compilation writeCode path requires the oracle.
     */
    bool fastDispatch = true;

    /** Stop the machine after this many cycles (0 = unlimited). */
    uint64_t maxCycles = 0;

    /** Capture write/1 output into a string instead of stdout. */
    bool captureOutput = true;

    /** Enable the instruction/predicate profiler (small host-side
     *  overhead; no effect on simulated cycles). */
    bool profile = false;

    /** Collect global-stack garbage automatically when usage exceeds
     *  this many words (0 = never collect automatically). */
    uint64_t gcThresholdWords = 0;

    // --- specialized-unit ablations (§5: "the influence of each
    // specialized unit (trail, dereferencing, RAC, double port
    // register file...)") ---

    /** Dereference hardware: the data cache starts reference
     *  following speculatively, one reference per cycle (§3.1.4).
     *  Off: every step costs two cycles (request + read). */
    bool fastDereference = true;

    /** Trail unit: the three comparators run in parallel with
     *  dereferencing (§3.1.5). Off: every binding pays 2 cycles for
     *  the boundary comparisons. */
    bool parallelTrailCheck = true;

    /** RAC register-block moves: choice point save/restore streams
     *  one register per cycle (§3.1.5). Off: 2 cycles per word. */
    bool racBlockMoves = true;

    /** Dual-ported register file + four-address format: register
     *  moves and the second result port are free (§3.1.1). Off:
     *  get/put register moves cost an extra cycle. */
    bool dualPortRegisterFile = true;

    /** Cycles charged per choice point inspected while a thrown ball
     *  unwinds to its catch/3 marker: one control-stack read of the
     *  alt field plus the marker comparator, overlapped with the trail
     *  comparators (DESIGN.md "Exceptions on the backtracking
     *  hardware"). The marker frame's own restore is charged the
     *  ordinary RAC block-move cost on top. */
    unsigned catchUnwindCycles = 2;
};

} // namespace kcm

#endif // KCM_CORE_MACHINE_CONFIG_HH
