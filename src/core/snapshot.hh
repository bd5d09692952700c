/**
 * @file
 * Deterministic machine checkpoints.
 *
 * takeSnapshot() serializes the complete architectural and
 * micro-architectural state of a Machine — register file, state
 * registers, shallow-backtracking shadows, every nonzero memory word,
 * every nonzero page-table entry, every valid cell of both cache arrays
 * (tag, data, dirty bit), zone limits,
 * prefetch pipeline, governor state and every statistics counter —
 * into a self-contained byte image. restoreSnapshot() loads that image
 * into a Machine built with the same MachineConfig; continuing
 * execution from the restore point produces bit-identical simulated
 * metrics (cycles, instructions, inferences, cache hits, ...) to an
 * uninterrupted run.
 *
 * The byte image is a sectioned container ("KCMSNAP6"): code image,
 * processor state, memory system and dynamic clause store are separate
 * sections, each length-prefixed and checksummed (a 64-bit checksum
 * that reads eight bytes per step; see snapshot.cc). The code
 * image is a binary record of the CodeImage's fields with raw atom
 * ids, so a restore neither parses text nor re-interns atoms, and main
 * memory is recorded as extents of consecutive nonzero words, each
 * copied as one block. restoreSnapshot() validates the whole container
 * — structure, checksums, the image record's layout, every memory
 * extent, memory geometry — before mutating the target, so a
 * truncated or bit-flipped blob is rejected with a diagnostic and the
 * target machine is left exactly as it was (no partial restore). It
 * then decodes the image in place, into the target's own CodeImage:
 * every predicate, stub, declaration and string that the target's
 * image already holds is kept, so restoring the templates of one
 * program into one machine changes only what differs.
 *
 * Cost is proportional to touched state, not to the board or the
 * arrays: main memory (per 64-word block), the page table and both
 * cache arrays each keep a host-side touched set holding every element
 * that differs from its default (mem/touched_set.hh). Saving scans
 * only the marked elements; the bytes are the ones a scan of the whole
 * board and arrays would write. Restoring resets only the target's
 * marked elements to their default, then applies the recorded ones.
 * The page table and both cache arrays are fixed hardware, mostly
 * unused: they are recorded as (index, fields) entries for nonzero
 * entries and valid cells only. No simulated behaviour reads an
 * invalid cell's tag or data, so continuations and re-snapshots stay
 * exact.
 *
 * Scope and caveats:
 *  - Take snapshots at a run boundary (between run()/nextSolution()
 *    calls, or after a trap): that is an instruction boundary, the
 *    granularity at which the simulator is deterministic.
 *  - Snapshots are process-local: tagged words and the code image
 *    record embed atom ids, which are interned per process. Restoring
 *    in the same process is exact; a snapshot written to disk is only
 *    portable to a process that interns the same atoms in the same
 *    order.
 *  - The target machine must use the same MachineConfig as the source
 *    (same timing model, quotas and fault plan); the predecoded image
 *    follows the embedded code image per the target's dispatch-core
 *    setting (Machine re-decodes only the words that differ from the
 *    image it held).
 *  - The target need not be fresh: a restore overwrites every part of
 *    the state listed above, so a machine that has run other queries
 *    under the same MachineConfig restores exactly. An attached
 *    clause store is the exception: a restore replaces its contents
 *    (Machine::attachDynamicDb), so detach a shared one first.
 */

#ifndef KCM_CORE_SNAPSHOT_HH
#define KCM_CORE_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace kcm
{

class Machine;

/** An opaque machine checkpoint (a self-contained byte image). */
struct Snapshot
{
    std::vector<uint8_t> bytes;
};

/** Serialize the complete state of @p machine. */
Snapshot takeSnapshot(Machine &machine);

/** Load @p snapshot into @p machine (same MachineConfig as the
 *  source). Fatal on a corrupt or truncated image. */
void restoreSnapshot(Machine &machine, const Snapshot &snapshot);

/**
 * Structural validation only: parse the KCMSNAP6 container, verify
 * every section length and checksum, the image record's layout and
 * every memory extent, without touching any machine — the first phase
 * of restoreSnapshot() but for the geometry check against a target,
 * which runs it on every restore. Returns false (and fills @p why when
 * non-null) on a truncated or bit-flipped image.
 */
bool validateSnapshot(const Snapshot &snapshot, std::string *why = nullptr);

/**
 * For tests: recompute the checksum of every section of @p snapshot
 * after a payload was edited in place (its length unchanged), so that
 * a malformed payload gets past the checksums to the checks behind
 * them. Fatal if the container itself is malformed.
 */
void resealSnapshot(Snapshot &snapshot);

/**
 * For tests: the first main-memory word, page-table entry or cache
 * cell of @p machine that differs from its default but is not in its
 * unit's touched set, as "<what> <index>"; "" if there is none. Save
 * and restore visit only the touched sets, so they are exact only
 * while this is "".
 */
std::string untrackedState(Machine &machine);

} // namespace kcm

#endif // KCM_CORE_SNAPSHOT_HH
