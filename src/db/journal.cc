#include "db/journal.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "base/checksum.hh"
#include "base/logging.hh"

namespace kcm::db
{

namespace
{

constexpr char kMagic[8] = {'K', 'C', 'M', 'J', 'R', 'N', 'L', '1'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 16; // magic + u32 version + u32 reserved
constexpr size_t kRecordHeaderBytes = 24; // type, reserved, length, checksum
/** Sanity bound on one record: a 1M-fact snapshot is tens of MB; a
 *  length beyond this is a corrupt header, not a real record. */
constexpr uint64_t kMaxRecordBytes = 1ull << 31;

enum : uint32_t
{
    recCommit = 1,
    recSnapshot = 2,
};

void
putU32(std::vector<uint8_t> &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<uint8_t> &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint32_t
readU32(const uint8_t *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return v;
}

uint64_t
readU64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
}

void
writeAll(int fd, const uint8_t *data, size_t size, const std::string &path)
{
    while (size > 0) {
        ssize_t n = ::write(fd, data, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fatal("journal: write ", path, ": ", std::strerror(errno));
        }
        data += n;
        size -= static_cast<size_t>(n);
    }
}

std::vector<uint8_t>
readWholeFile(const std::string &path, bool &exists)
{
    std::vector<uint8_t> bytes;
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        if (errno == ENOENT) {
            exists = false;
            return bytes;
        }
        fatal("journal: open ", path, ": ", std::strerror(errno));
    }
    exists = true;
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        int err = errno;
        ::close(fd);
        fatal("journal: stat ", path, ": ", std::strerror(err));
    }
    bytes.resize(static_cast<size_t>(st.st_size));
    size_t got = 0;
    while (got < bytes.size()) {
        ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            int err = errno;
            ::close(fd);
            fatal("journal: read ", path, ": ", std::strerror(err));
        }
        if (n == 0)
            break;
        got += static_cast<size_t>(n);
    }
    bytes.resize(got);
    ::close(fd);
    return bytes;
}

std::vector<uint8_t>
fileHeader()
{
    std::vector<uint8_t> h(kMagic, kMagic + sizeof kMagic);
    putU32(h, kVersion);
    putU32(h, 0);
    return h;
}

void
fsyncOrDie(int fd, const std::string &path)
{
    if (::fdatasync(fd) != 0)
        fatal("journal: fdatasync ", path, ": ", std::strerror(errno));
}

} // namespace

// ---------------------------------------------------------------------
// Offline scan / repair / compact

std::string
Journal::journalFilePath(const std::string &dir_or_file)
{
    struct stat st{};
    if (::stat(dir_or_file.c_str(), &st) == 0 && S_ISDIR(st.st_mode))
        return dir_or_file + "/journal.kcmj";
    // Nonexistent paths are treated as directories (open() creates
    // them) unless they already name a .kcmj file.
    if (dir_or_file.size() >= 5 &&
        dir_or_file.compare(dir_or_file.size() - 5, 5, ".kcmj") == 0)
        return dir_or_file;
    return dir_or_file + "/journal.kcmj";
}

JournalScan
Journal::scanFile(const std::string &path, ClauseStore *replay_into)
{
    JournalScan scan;
    bool exists = false;
    std::vector<uint8_t> bytes = readWholeFile(path, exists);
    scan.fileBytes = bytes.size();
    if (!exists || bytes.empty())
        return scan; // fresh journal: clean, goodBytes 0
    if (bytes.size() < kHeaderBytes) {
        // Only a crash during initial creation leaves a partial
        // header; reopen it as an empty journal.
        scan.torn = true;
        scan.reason = "partial file header";
        return scan;
    }
    if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0)
        fatal("journal: ", path, " is not a KCM journal (bad magic)");
    if (uint32_t v = readU32(bytes.data() + 8); v != kVersion)
        fatal("journal: ", path, ": unsupported version ", v);

    if (replay_into && replay_into->generation() != 0)
        fatal("journal: replay target store is not empty");

    size_t pos = kHeaderBytes;
    scan.goodBytes = pos;
    uint64_t expect_id = 1;
    auto bad = [&](bool torn, std::string why) {
        scan.torn = torn;
        scan.corrupt = !torn;
        scan.reason = std::move(why);
    };
    while (pos < bytes.size()) {
        const size_t remaining = bytes.size() - pos;
        if (remaining < kRecordHeaderBytes) {
            bad(true, cat("partial record header at offset ", pos));
            break;
        }
        const uint8_t *h = bytes.data() + pos;
        const uint32_t type = readU32(h);
        const uint64_t len = readU64(h + 8);
        const uint64_t sum = readU64(h + 16);
        if (type != recCommit && type != recSnapshot) {
            bad(false, cat("bad record type ", type, " at offset ", pos));
            break;
        }
        if (len > kMaxRecordBytes) {
            bad(false,
                cat("implausible record length ", len, " at offset ", pos));
            break;
        }
        if (remaining - kRecordHeaderBytes < len) {
            bad(true, cat("partial record payload at offset ", pos));
            break;
        }
        const uint8_t *payload = h + kRecordHeaderBytes;
        if (fnv1a64(payload, size_t(len)) != sum) {
            bad(false, cat("checksum mismatch at offset ", pos));
            break;
        }
        if (len < 8) {
            bad(false, cat("short record payload at offset ", pos));
            break;
        }
        const uint64_t id_field = readU64(payload);
        if (type == recCommit) {
            if (id_field != expect_id) {
                bad(false, cat("commit id ", id_field, " at offset ", pos,
                               ", expected ", expect_id));
                break;
            }
            std::vector<TxnOp> ops;
            try {
                ops = ClauseStore::decodeOps(payload + 8, size_t(len - 8));
                if (replay_into) {
                    for (const TxnOp &op : ops)
                        replay_into->applyOp(op);
                }
            } catch (const FatalError &err) {
                bad(false, cat("commit ", id_field, " at offset ", pos,
                               ": ", err.what()));
                break;
            }
            scan.ops += ops.size();
            ++scan.commits;
            ++scan.commitsSinceSnapshot;
            scan.lastCommitId = id_field;
            expect_id = id_field + 1;
        } else {
            // Snapshot: supersedes everything before it. A snapshot's
            // id is the last commit applied to it.
            try {
                if (replay_into) {
                    replay_into->loadFrom(payload + 8, size_t(len - 8));
                } else {
                    // Validate structure even when not replaying.
                    ClauseStore probe;
                    probe.loadFrom(payload + 8, size_t(len - 8));
                }
            } catch (const FatalError &err) {
                bad(false, cat("snapshot at offset ", pos, ": ",
                               err.what()));
                break;
            }
            ++scan.snapshots;
            scan.commitsSinceSnapshot = 0;
            scan.lastCommitId = id_field;
            expect_id = id_field + 1;
        }
        scan.recordOffsets.push_back(pos);
        ++scan.records;
        pos += kRecordHeaderBytes + size_t(len);
        scan.goodBytes = pos;
    }
    return scan;
}

void
Journal::truncateFile(const std::string &path, uint64_t good_bytes)
{
    if (good_bytes < kHeaderBytes) {
        // Nothing salvageable: rewrite as a fresh empty journal.
        int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
        if (fd < 0)
            fatal("journal: open ", path, ": ", std::strerror(errno));
        std::vector<uint8_t> h = fileHeader();
        writeAll(fd, h.data(), h.size(), path);
        fsyncOrDie(fd, path);
        ::close(fd);
        return;
    }
    if (::truncate(path.c_str(), static_cast<off_t>(good_bytes)) != 0)
        fatal("journal: truncate ", path, ": ", std::strerror(errno));
}

JournalScan
Journal::compactFile(const std::string &path, const DynDbConfig &config)
{
    ClauseStore store(config);
    JournalScan scan = scanFile(path, &store);

    std::vector<uint8_t> out = fileHeader();
    std::vector<uint8_t> payload;
    putU64(payload, scan.lastCommitId);
    store.saveTo(payload);
    putU32(out, recSnapshot);
    putU32(out, 0);
    putU64(out, payload.size());
    putU64(out, fnv1a64(payload.data(), payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());

    const std::string tmp = path + ".tmp";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (fd < 0)
        fatal("journal: open ", tmp, ": ", std::strerror(errno));
    writeAll(fd, out.data(), out.size(), tmp);
    fsyncOrDie(fd, tmp);
    ::close(fd);
    if (::rename(tmp.c_str(), path.c_str()) != 0)
        fatal("journal: rename ", tmp, " -> ", path, ": ",
              std::strerror(errno));
    return scan;
}

// ---------------------------------------------------------------------
// Live journal

Journal::~Journal()
{
    if (fd_ >= 0) {
        // Destructor path (no throw): best-effort sync.
        if (dirty_)
            ::fdatasync(fd_);
        ::close(fd_);
        fd_ = -1;
    }
}

void
Journal::open(const std::string &dir, const JournalOptions &opts,
              ClauseStore &store, JournalScan &scan)
{
    if (fd_ >= 0)
        fatal("journal: already open");
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
        fatal("journal: mkdir ", dir, ": ", std::strerror(errno));
    opts_ = opts;
    path_ = journalFilePath(dir);

    // Take the writer lock before looking at the file: two daemons
    // appending to one journal would interleave records and corrupt
    // it silently, and even the recovery scan below must not race a
    // live writer's truncate/compact. flock() is advisory but every
    // writer goes through here; the lock dies with the process, so a
    // SIGKILL never leaves a stale lock behind.
    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                 0644);
    if (fd_ < 0)
        fatal("journal: open ", path_, ": ", std::strerror(errno));
    if (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
        int err = errno;
        ::close(fd_);
        fd_ = -1;
        if (err == EWOULDBLOCK)
            fatal("journal: ", path_,
                  ": locked by another process — refusing to share a "
                  "journal between two live daemons");
        fatal("journal: lock ", path_, ": ", std::strerror(err));
    }

    scan = scanFile(path_, &store);
    if (!scan.clean()) {
        warn("journal: ", path_, ": ", scan.classification(), " — ",
             scan.reason, "; keeping ", scan.commits,
             " committed record(s), truncating ",
             scan.fileBytes - scan.goodBytes, " byte(s)");
        truncateFile(path_, scan.goodBytes);
    }

    struct stat st{};
    if (::fstat(fd_, &st) != 0)
        fatal("journal: stat ", path_, ": ", std::strerror(errno));
    if (st.st_size < static_cast<off_t>(kHeaderBytes)) {
        std::vector<uint8_t> h = fileHeader();
        writeAll(fd_, h.data(), h.size(), path_);
        fsyncOrDie(fd_, path_);
    }
    nextCommitId_ = scan.lastCommitId + 1;
    commitsSinceSnapshot_ = scan.commitsSinceSnapshot;
    dirty_ = false;
    lastSync_ = std::chrono::steady_clock::now();
}

void
Journal::appendRecord(uint32_t type, const std::vector<uint8_t> &payload)
{
    if (fd_ < 0)
        fatal("journal: append on a closed journal");
    std::vector<uint8_t> rec;
    rec.reserve(kRecordHeaderBytes + payload.size());
    putU32(rec, type);
    putU32(rec, 0);
    putU64(rec, payload.size());
    putU64(rec, fnv1a64(payload.data(), payload.size()));
    rec.insert(rec.end(), payload.begin(), payload.end());
    writeAll(fd_, rec.data(), rec.size(), path_);
    bytesAppended_ += rec.size();
    dirty_ = true;

    switch (opts_.sync) {
      case JournalSync::Always:
        syncNow();
        break;
      case JournalSync::Group: {
        auto now = std::chrono::steady_clock::now();
        if (now - lastSync_ >=
            std::chrono::milliseconds(opts_.groupWindowMs))
            syncNow();
        break;
      }
      case JournalSync::None:
        break;
    }
}

void
Journal::syncNow()
{
    fsyncOrDie(fd_, path_);
    ++syncs_;
    dirty_ = false;
    lastSync_ = std::chrono::steady_clock::now();
}

uint64_t
Journal::commit(const std::vector<TxnOp> &ops)
{
    std::vector<uint8_t> payload;
    putU64(payload, nextCommitId_);
    ClauseStore::encodeOps(ops, payload);
    appendRecord(recCommit, payload);
    ++commitsSinceSnapshot_;
    return nextCommitId_++;
}

void
Journal::appendSnapshot(const ClauseStore &store)
{
    std::vector<uint8_t> payload;
    putU64(payload, nextCommitId_ - 1);
    store.saveTo(payload);
    appendRecord(recSnapshot, payload);
    commitsSinceSnapshot_ = 0;
}

void
Journal::flush()
{
    if (fd_ >= 0 && dirty_)
        syncNow();
}

void
Journal::close()
{
    if (fd_ < 0)
        return;
    flush();
    ::close(fd_);
    fd_ = -1;
}

// ---------------------------------------------------------------------
// JournaledStore

JournaledStore::JournaledStore(const std::string &dir,
                               const JournalOptions &opts,
                               DynDbConfig db_config)
    : store_(std::make_shared<ClauseStore>(db_config)), opts_(opts)
{
    journal_.open(dir, opts, *store_, recovery_);
    // No goal has seen the replayed store yet.
    store_->reclaimAll();
    bytes_.store(0);
    if (recovery_.records > 0) {
        inform("journal: ", journal_.path(), ": recovered ",
               recovery_.commits, " commit(s), ", recovery_.snapshots,
               " snapshot(s), ", recovery_.ops, " op(s); last commit id ",
               recovery_.lastCommitId);
    }
}

JournaledStore::~JournaledStore()
{
    journal_.close();
}

uint64_t
JournaledStore::commit(const std::vector<TxnOp> &ops)
{
    uint64_t id = journal_.commit(ops);
    // The committing session is the only one running (it holds
    // mutex()) and its machine is discarded after the commit, so
    // nothing can see the retracted clauses any more.
    store_->reclaim(ops);
    commits_.fetch_add(1);
    ops_.fetch_add(ops.size());
    if (opts_.snapshotEvery &&
        journal_.commitsSinceSnapshot() >= opts_.snapshotEvery) {
        journal_.appendSnapshot(*store_);
        snapshots_.fetch_add(1);
    }
    bytes_.store(journal_.bytesAppended());
    return id;
}

void
JournaledStore::flush()
{
    std::lock_guard<std::mutex> lock(mutex_);
    journal_.flush();
}

} // namespace kcm::db
