/**
 * @file
 * Append-only write-ahead journal for ClauseStore mutations.
 *
 * One journal file (`<dir>/journal.kcmj`) makes one clause store
 * durable: every committed transaction (the TxnOp batch of one query)
 * is appended as a checksummed record *before* the service
 * acknowledges the query, and periodic snapshot records bound replay
 * time. Recovery replays the newest snapshot plus the commit suffix;
 * because TxnOp replay reallocates the same sequence numbers and
 * generation counters and skiplist heights are pure functions of
 * those, the recovered store is bit-identical to the lost one — same
 * saveTo() bytes, same `scanned` counts on every engine.
 *
 * On-disk format (all integers little-endian):
 *
 *   file header: magic "KCMJRNL1", u32 version (1), u32 reserved
 *   record:      u32 type, u32 reserved, u64 payload length,
 *                u64 FNV-1a-64 checksum (standard basis, payload
 *                only), payload bytes
 *
 * Record types: 1 = commit (u64 commit id, then a ClauseStore
 * encodeOps() batch), 2 = snapshot (u64 last-applied commit id, then
 * a full ClauseStore saveTo() payload). Commit ids are strictly
 * sequential from 1; a snapshot record supersedes everything before
 * it, so recovery starts at the last valid snapshot.
 *
 * Torn-tail vs corruption: a record that runs off the end of the file
 * is the expected signature of a crash mid-append ("torn_tail") and
 * is truncated silently-in-the-protocol sense but loudly in the logs;
 * a checksum or structure failure *before* the end ("corrupt_record")
 * means bit rot or tampering — it is reported with its offset and the
 * valid prefix is kept, never the suspect suffix. Neither case is
 * ever silently swallowed: open() warns, kcm_dbck exits nonzero.
 *
 * Durability model (documented honestly): records are write()n to the
 * OS before the query is acknowledged, so a SIGKILL of the daemon
 * can never lose an acknowledged commit in *any* sync mode — the
 * page cache survives the process. fsync policy only matters for
 * kernel crashes and power loss: `always` syncs every record,
 * `group` batches fsyncs within a group-commit window (at most one
 * window of acknowledged commits is exposed to power loss), `none`
 * syncs only on drain/close.
 */

#ifndef KCM_DB_JOURNAL_HH
#define KCM_DB_JOURNAL_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "db/clause_store.hh"

namespace kcm::db
{

enum class JournalSync
{
    Always, ///< fdatasync after every record
    Group,  ///< fdatasync at most once per group-commit window
    None,   ///< fdatasync only on flush()/close()
};

struct JournalOptions
{
    JournalSync sync = JournalSync::Group;
    /** Group-commit window: under JournalSync::Group, consecutive
     *  records within this many milliseconds of the last fdatasync
     *  share it. */
    uint64_t groupWindowMs = 5;
    /** Append a snapshot record every N commits (0 = never), bounding
     *  recovery replay to one snapshot load + N commit batches. */
    uint64_t snapshotEvery = 1024;
};

/** Result of scanning (and optionally replaying) a journal file. */
struct JournalScan
{
    uint64_t records = 0;   ///< valid records seen
    uint64_t commits = 0;   ///< ... of which commit records
    uint64_t snapshots = 0; ///< ... of which snapshot records
    uint64_t ops = 0;       ///< mutations across all valid commits
    uint64_t lastCommitId = 0;
    uint64_t commitsSinceSnapshot = 0;
    uint64_t fileBytes = 0; ///< file size when scanned
    uint64_t goodBytes = 0; ///< end of the last valid record
    /** Start offset of every valid record (for dbck --dump and the
     *  chaos harness's targeted bit flips). */
    std::vector<uint64_t> recordOffsets;
    bool torn = false;    ///< partial tail record (crash signature)
    bool corrupt = false; ///< checksum/structure failure mid-file
    std::string reason;   ///< one-line detail when torn or corrupt

    bool clean() const { return !torn && !corrupt; }

    /** Stable classification label: "clean", "torn_tail" or
     *  "corrupt_record" (corruption wins when both apply). */
    const char *
    classification() const
    {
        if (corrupt)
            return "corrupt_record";
        if (torn)
            return "torn_tail";
        return "clean";
    }
};

class Journal
{
  public:
    Journal() = default;
    ~Journal();

    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /**
     * Open (creating directory and file as needed) and replay:
     * scan the file, replay it into @p store (which must be empty),
     * truncate a torn or corrupt tail with a warning, and leave the
     * journal positioned to append. @p scan receives the recovery
     * report. Throws FatalError on I/O errors or a foreign file.
     */
    void open(const std::string &dir, const JournalOptions &opts,
              ClauseStore &store, JournalScan &scan);

    bool isOpen() const { return fd_ >= 0; }

    /** Append one commit record (the caller's responsibility: the ops
     *  must already be applied to the store). Returns the commit id.
     *  Sync policy per JournalOptions. Throws FatalError on I/O
     *  failure — the caller must then roll the store back. */
    uint64_t commit(const std::vector<TxnOp> &ops);

    /** Append a snapshot record of @p store's current contents and
     *  reset the commits-since-snapshot counter. */
    void appendSnapshot(const ClauseStore &store);

    /** fdatasync if any record since the last sync. */
    void flush();

    /** flush() and close the descriptor. */
    void close();

    uint64_t nextCommitId() const { return nextCommitId_; }
    uint64_t commitsSinceSnapshot() const { return commitsSinceSnapshot_; }
    uint64_t bytesAppended() const { return bytesAppended_; }
    uint64_t syncsPerformed() const { return syncs_; }
    const std::string &path() const { return path_; }

    /** `<dir>/journal.kcmj`; a path that is not a directory is
     *  returned unchanged (dbck accepts either). */
    static std::string journalFilePath(const std::string &dir_or_file);

    /**
     * Offline scan: validate every record, classify the tail, and —
     * when @p replay_into is non-null — replay into it (must be
     * empty; receives the surviving prefix even when the tail is
     * bad). Never modifies the file. Throws FatalError only when the
     * file cannot be read at all or is not a KCM journal.
     */
    static JournalScan scanFile(const std::string &path,
                                ClauseStore *replay_into);

    /** Truncate @p path at @p good_bytes (a record boundary from
     *  scanFile); a prefix shorter than the file header is rewritten
     *  as a fresh empty journal. */
    static void truncateFile(const std::string &path, uint64_t good_bytes);

    /**
     * Rewrite the journal as header + one snapshot record holding the
     * surviving prefix's store (replayed with @p config), preserving
     * the last commit id. Atomic: writes `<path>.tmp`, fsyncs,
     * renames. Returns the pre-compaction scan.
     */
    static JournalScan compactFile(const std::string &path,
                                   const DynDbConfig &config);

  private:
    void appendRecord(uint32_t type, const std::vector<uint8_t> &payload);
    void syncNow();

    int fd_ = -1;
    std::string path_;
    JournalOptions opts_;
    uint64_t nextCommitId_ = 1;
    uint64_t commitsSinceSnapshot_ = 0;
    uint64_t bytesAppended_ = 0;
    uint64_t syncs_ = 0;
    bool dirty_ = false;
    std::chrono::steady_clock::time_point lastSync_{};
};

/**
 * A ClauseStore bound to its journal plus the mutex that serializes
 * durable mutators. The service layer shares one of these across all
 * worker sessions: a durable query locks mutex(), runs against
 * store() inside a transaction, and on success journals the op batch
 * via commit() *before* the reply is written (commit-before-ack).
 * The store holds only live clauses after construction (recovery)
 * and after every commit: both reclaim what was retracted (the
 * Journal itself stays a raw log). Live counters are atomics so the
 * stats endpoint can read them without the mutex.
 */
class JournaledStore
{
  public:
    JournaledStore(const std::string &dir, const JournalOptions &opts,
                   DynDbConfig db_config);
    ~JournaledStore();

    std::mutex &mutex() { return mutex_; }
    ClauseStore &store() { return *store_; }
    const std::shared_ptr<ClauseStore> &storePtr() const { return store_; }

    /** What open-time recovery found (immutable after construction). */
    const JournalScan &recoveryReport() const { return recovery_; }

    /** Journal an applied op batch, then reclaim the clauses it
     *  erased; auto-snapshots every JournalOptions::snapshotEvery
     *  commits. Caller holds mutex() and then closes its transaction
     *  with commitTxn() (a committed batch is never rolled back).
     *  Returns the commit id. */
    uint64_t commit(const std::vector<TxnOp> &ops);

    void flush();

    uint64_t commitsWritten() const { return commits_.load(); }
    uint64_t opsWritten() const { return ops_.load(); }
    uint64_t snapshotsWritten() const { return snapshots_.load(); }
    uint64_t bytesWritten() const { return bytes_.load(); }
    const std::string &path() const { return journal_.path(); }

  private:
    std::mutex mutex_;
    std::shared_ptr<ClauseStore> store_;
    Journal journal_;
    JournalScan recovery_;
    JournalOptions opts_;
    std::atomic<uint64_t> commits_{0};
    std::atomic<uint64_t> ops_{0};
    std::atomic<uint64_t> snapshots_{0};
    std::atomic<uint64_t> bytes_{0};
};

} // namespace kcm::db

#endif // KCM_DB_JOURNAL_HH
