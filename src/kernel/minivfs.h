// MiniVfs: the slice of the Linux VFS that the paper's will-it-scale
// experiments exercise (Section 7.2.2, Table 1), built over the qspinlock
// reproduction so the stock-vs-CNA kernel comparison can be replayed.
//
// Reproduced structures and their kernel counterparts:
//   FilesStruct      -- struct files_struct: the per-process fd table with its
//                       file_lock spinlock; __alloc_fd scans the fd bitmap for
//                       the lowest free descriptor under that lock.
//   Inode + FileLockContext -- struct inode / file_lock_context: POSIX byte-
//                       range locks chained off flc_lock; posix_lock_inode
//                       walks and edits the list under flc_lock.
//   Dentry + LockRef -- dcache entries with the kernel's lockref: a spinlock
//                       plus refcount where gets/puts first try a lock-free
//                       cmpxchg of the count and fall back to the spinlock
//                       under contention (which is when lockstat sees dput /
//                       lockref_get_* call sites, as in Table 1).
//
// Every lock acquisition can report (lock name, call site, was-contended) to
// the LockStatRegistry through a site id interned once -- that regenerates
// Table 1 -- and every data-structure touch is charged through
// P::OnDataAccess so the simulator accounts the critical sections' cache
// traffic.
#ifndef CNA_KERNEL_MINIVFS_H_
#define CNA_KERNEL_MINIVFS_H_

#include <bit>
#include <cstdint>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernel/lockstat.h"
#include "qspin/qspinlock.h"

namespace cna::kernel {

struct MiniVfsOptions {
  int max_fds = 4096;
  // Record (lock, call site, contended) into LockStatRegistry::Global().
  // The paper enables lockstat only to *identify* contended locks (Table 1)
  // and disables it for performance runs "to avoid the probing effect".
  bool lockstat_accounting = false;
};

template <typename P, qspin::SlowPathKind K>
class MiniVfs {
 public:
  using SpinLock = qspin::QSpinLock<P, K>;

  explicit MiniVfs(MiniVfsOptions options)
      : options_(options),
        fd_bitmap_(static_cast<std::size_t>(options.max_fds + 63) / 64, 0),
        fd_to_inode_(static_cast<std::size_t>(options.max_fds), -1),
        fd_to_dentry_(static_cast<std::size_t>(options.max_fds), -1) {}

  MiniVfs(const MiniVfs&) = delete;
  MiniVfs& operator=(const MiniVfs&) = delete;

  // ---- inode / dentry management -------------------------------------------

  // Creates a fresh inode and returns its number.
  int CreateInode() {
    std::lock_guard<std::mutex> g(alloc_mu_);
    inodes_.emplace_back();
    inodes_.back().data_id = NextDataId(4);
    return static_cast<int>(inodes_.size()) - 1;
  }

  // Creates a directory (an inode with a dcache directory dentry); returns
  // the *dentry* index used as the parent for Open/Unlink.
  //
  // NOTE (here and below): simulated-atomic operations may yield the current
  // fiber, so they must NEVER run inside an alloc_mu_ critical section --
  // another fiber on the same OS thread would self-deadlock on the mutex.
  int CreateDirectory() {
    const int ino = CreateInode();
    Dentry* d;
    {
      std::lock_guard<std::mutex> g(alloc_mu_);
      dentries_.emplace_back();
      d = &dentries_.back();
      d->inode = ino;
      d->parent = -1;
      d->self = static_cast<int>(dentries_.size()) - 1;
      d->name = 0;
      d->data_id = NextDataId(2);
    }
    d->ref.count.store(1, std::memory_order_relaxed);  // pinned
    return d->self;
  }

  // ---- fd table (files_struct) ---------------------------------------------

  // __alloc_fd: find the lowest free fd under file_lock and install `inode`.
  // Returns -1 when the table is full (EMFILE).
  int AllocFd(int inode, int dentry = -1) {
    AcquireSpin(files_lock_, kAllocFd);
    int fd = -1;
    for (std::size_t w = 0; w < fd_bitmap_.size(); ++w) {
      P::OnDataAccess(files_data_id_ + 1 + w, /*write=*/false);
      if (fd_bitmap_[w] != ~std::uint64_t{0}) {
        const int bit = std::countr_one(fd_bitmap_[w]);
        const int candidate = static_cast<int>(w) * 64 + bit;
        if (candidate >= options_.max_fds) {
          break;
        }
        fd_bitmap_[w] |= std::uint64_t{1} << bit;
        P::OnDataAccess(files_data_id_ + 1 + w, /*write=*/true);
        fd = candidate;
        break;
      }
    }
    if (fd >= 0) {
      fd_to_inode_[static_cast<std::size_t>(fd)] = inode;
      fd_to_dentry_[static_cast<std::size_t>(fd)] = dentry;
      P::OnDataAccess(files_data_id_ + 40 + static_cast<std::uint64_t>(fd) % 8,
                      /*write=*/true);
    }
    files_lock_.Unlock();
    return fd;
  }

  // __close_fd: release the descriptor; does NOT dput any dentry (Close()
  // layers that on top, like the kernel's filp_close path).
  bool CloseFd(int fd) {
    if (fd < 0 || fd >= options_.max_fds) {
      return false;
    }
    AcquireSpin(files_lock_, kCloseFd);
    const auto w = static_cast<std::size_t>(fd) / 64;
    const auto bit = static_cast<std::uint64_t>(fd) % 64;
    const bool was_open = (fd_bitmap_[w] >> bit) & 1;
    if (was_open) {
      fd_bitmap_[w] &= ~(std::uint64_t{1} << bit);
      fd_to_inode_[static_cast<std::size_t>(fd)] = -1;
      fd_to_dentry_[static_cast<std::size_t>(fd)] = -1;
      P::OnDataAccess(files_data_id_ + 1 + w, /*write=*/true);
    }
    files_lock_.Unlock();
    return was_open;
  }

  // ---- POSIX byte-range locks (fcntl F_SETLK) ------------------------------

  // posix_lock_inode: add an exclusive/shared lock [start, start+len) for
  // `owner`, failing (false) on conflict -- F_SETLK semantics, no blocking.
  // After a successful set, fcntl_setlk re-checks the fd table under
  // file_lock to detect the close/fcntl race, exactly like fs/fcntl.c.
  bool FcntlSetLk(int fd, std::uint64_t start, std::uint64_t len, int owner,
                  bool exclusive) {
    Inode* inode = InodeOfFd(fd);
    if (inode == nullptr) {
      return false;
    }
    AcquireSpin(inode->flc.flc_lock, kPosixLockInode);
    bool ok = true;
    const std::uint64_t end = start + len;
    std::size_t scanned = 0;
    for (const PosixLock& pl : inode->flc.locks) {
      P::OnDataAccess(inode->flc.data_id + (scanned++ % 4), /*write=*/false);
      if (pl.owner != owner && pl.start < end && start < pl.end &&
          (pl.exclusive || exclusive)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      inode->flc.locks.push_back(PosixLock{start, end, owner, exclusive});
      P::OnDataAccess(inode->flc.data_id, /*write=*/true);
    }
    inode->flc.flc_lock.Unlock();
    if (ok) {
      // Close/fcntl race detection (fs/fcntl.c fcntl_setlk): take
      // files->file_lock and verify the fd is still installed.
      AcquireSpin(files_lock_, kFcntlSetlk);
      P::OnDataAccess(files_data_id_ + 40 + static_cast<std::uint64_t>(fd) % 8,
                      /*write=*/false);
      files_lock_.Unlock();
    }
    return ok;
  }

  // posix_lock_inode with F_UNLCK: drop this owner's locks overlapping the
  // range.  Returns the number of locks removed.
  int FcntlUnlock(int fd, std::uint64_t start, std::uint64_t len, int owner) {
    Inode* inode = InodeOfFd(fd);
    if (inode == nullptr) {
      return 0;
    }
    AcquireSpin(inode->flc.flc_lock, kPosixLockInode);
    const std::uint64_t end = start + len;
    int removed = 0;
    auto& locks = inode->flc.locks;
    for (std::size_t i = 0; i < locks.size();) {
      P::OnDataAccess(inode->flc.data_id + (i % 4), /*write=*/false);
      if (locks[i].owner == owner && locks[i].start < end &&
          start < locks[i].end) {
        locks[i] = locks.back();
        locks.pop_back();
        P::OnDataAccess(inode->flc.data_id, /*write=*/true);
        ++removed;
      } else {
        ++i;
      }
    }
    inode->flc.flc_lock.Unlock();
    return removed;
  }

  // ---- dcache: open / close ------------------------------------------------

  // Path walk + open: dget(parent), look `name` up in the parent directory
  // (lockref_get_not_dead on a hit, d_alloc on a miss), allocate an fd, and
  // dput(parent).  Returns the fd, or -1 on EMFILE.
  int Open(int parent_dentry, std::uint64_t name) {
    Dentry& parent = dentries_[static_cast<std::size_t>(parent_dentry)];
    LockRefGet(parent, kLockrefGetNotZero);

    int child_idx = -1;
    {
      // d_lookup: hash-table read (RCU in the kernel -- lock-free).
      P::OnDataAccess(parent.data_id, /*write=*/false);
      std::lock_guard<std::mutex> g(alloc_mu_);
      auto it = parent.children.find(name);
      if (it != parent.children.end() &&
          !dentries_[static_cast<std::size_t>(it->second)].dead) {
        child_idx = it->second;
      }
    }

    if (child_idx >= 0) {
      // Found in the dcache: pin it (__d_lookup -> lockref_get_not_dead).
      Dentry& child = dentries_[static_cast<std::size_t>(child_idx)];
      if (!LockRefGetNotDead(child)) {
        child_idx = -1;  // raced with reclaim; fall through to d_alloc
      }
    }
    if (child_idx < 0) {
      child_idx = DAlloc(parent, parent_dentry, name);
    }

    Dentry& child = dentries_[static_cast<std::size_t>(child_idx)];
    const int fd = AllocFd(child.inode, child_idx);
    if (fd < 0) {
      LockRefPut(child);
    }
    LockRefPut(parent);
    return fd;
  }

  // filp_close: __close_fd + dput(dentry).  When the dentry's refcount drops
  // to zero it *may* be reclaimed (modelling dcache pressure), making the
  // next Open take the d_alloc path again -- this is what keeps both d_alloc
  // and lockref_get_not_dead hot in the open1 workload, as in Table 1.
  void Close(int fd) {
    int dentry_idx = -1;
    if (fd >= 0 && fd < options_.max_fds) {
      dentry_idx = fd_to_dentry_[static_cast<std::size_t>(fd)];
    }
    if (!CloseFd(fd)) {
      return;
    }
    if (dentry_idx >= 0) {
      LockRefPut(dentries_[static_cast<std::size_t>(dentry_idx)]);
    }
  }

  // ---- structures (public for tests) ---------------------------------------

  struct PosixLock {
    std::uint64_t start;
    std::uint64_t end;
    int owner;
    bool exclusive;
  };

  struct FileLockContext {
    SpinLock flc_lock;
    std::vector<PosixLock> locks;
    std::uint64_t data_id = 0;
  };

  struct Inode {
    FileLockContext flc;
    std::uint64_t data_id = 0;
  };

  // The kernel's lockref: spinlock-protected refcount with a lock-free
  // cmpxchg fast path that bails to the spinlock when the lock is held or
  // the CAS keeps failing (CMPXCHG_LOOP).
  struct LockRef {
    SpinLock lock;
    typename P::template Atomic<int> count{0};
  };

  struct Dentry {
    LockRef ref;
    int inode = -1;
    int parent = -1;
    int self = -1;  // own index; guards against stale reclaim of a namesake
    std::uint64_t name = 0;
    bool dead = false;
    std::uint64_t data_id = 0;
    std::unordered_map<std::uint64_t, int> children;  // directories only
  };

  Inode* InodeByNumber(int ino) {
    if (ino < 0 || ino >= static_cast<int>(inodes_.size())) {
      return nullptr;
    }
    return &inodes_[static_cast<std::size_t>(ino)];
  }

  Dentry* DentryByIndex(int idx) {
    if (idx < 0 || idx >= static_cast<int>(dentries_.size())) {
      return nullptr;
    }
    return &dentries_[static_cast<std::size_t>(idx)];
  }

  int InodeNumberOfFd(int fd) const {
    if (fd < 0 || fd >= options_.max_fds) {
      return -1;
    }
    return fd_to_inode_[static_cast<std::size_t>(fd)];
  }

  int OpenFdCount() const {
    int n = 0;
    for (std::uint64_t w : fd_bitmap_) {
      n += std::popcount(w);
    }
    return n;
  }

 private:
  static constexpr int kLockRefFastTries = 4;

  // Table 1's (lock, call site) pairs; the site names match the kernel
  // symbols lockstat reports.
  enum LockSite {
    kAllocFd, kCloseFd, kFcntlSetlk, kPosixLockInode, kLockrefGetNotZero,
    kLockrefGetNotDead, kDput, kDAlloc, kNumLockSites
  };

  // The pairs' lockstat ids, interned once per process on first use.
  static LockStatRegistry::SiteId SiteIdOf(LockSite site) {
    static LockStatRegistry& reg = LockStatRegistry::Global();
    static const LockStatRegistry::SiteId ids[kNumLockSites] = {
        reg.Intern("files_struct.file_lock", "__alloc_fd"),
        reg.Intern("files_struct.file_lock", "__close_fd"),
        reg.Intern("files_struct.file_lock", "fcntl_setlk"),
        reg.Intern("file_lock_context.flc_lock", "posix_lock_inode"),
        reg.Intern("lockref.lock", "lockref_get_not_zero"),
        reg.Intern("lockref.lock", "lockref_get_not_dead"),
        reg.Intern("lockref.lock", "dput"),
        reg.Intern("lockref.lock", "d_alloc"),
    };
    return ids[site];
  }

  void AcquireSpin(SpinLock& lock, LockSite site) {
    if (options_.lockstat_accounting) {
      const bool contended = lock.RawValue() != 0;
      LockStatRegistry::Global().RecordSite(SiteIdOf(site), contended);
    }
    lock.Lock();
  }

  Inode* InodeOfFd(int fd) {
    // fget: RCU in the kernel, lock-free reads of the fd table.
    if (fd < 0 || fd >= options_.max_fds) {
      return nullptr;
    }
    P::OnDataAccess(files_data_id_ + 40 + static_cast<std::uint64_t>(fd) % 8,
                    /*write=*/false);
    const int ino = fd_to_inode_[static_cast<std::size_t>(fd)];
    if (ino < 0) {
      return nullptr;
    }
    return &inodes_[static_cast<std::size_t>(ino)];
  }

  // lockref get: cmpxchg fast path, spinlock slow path (site names match the
  // kernel symbols Table 1 reports).
  void LockRefGet(Dentry& d, LockSite site) {
    if (!LockRefFastAdd(d.ref, 1)) {
      AcquireSpin(d.ref.lock, site);
      d.ref.count.fetch_add(1, std::memory_order_relaxed);
      d.ref.lock.Unlock();
    }
  }

  bool LockRefGetNotDead(Dentry& d) {
    if (!d.dead && LockRefFastAdd(d.ref, 1)) {
      return !d.dead;
    }
    AcquireSpin(d.ref.lock, kLockrefGetNotDead);
    bool ok = !d.dead;
    if (ok) {
      d.ref.count.fetch_add(1, std::memory_order_relaxed);
    }
    d.ref.lock.Unlock();
    return ok;
  }

  void LockRefPut(Dentry& d) {
    if (LockRefFastAdd(d.ref, -1)) {
      return;  // fast-path put; reclaim only happens on the locked path
    }
    AcquireSpin(d.ref.lock, kDput);
    const int now = d.ref.count.fetch_add(-1, std::memory_order_relaxed) - 1;
    if (now == 0 && d.parent >= 0) {
      // dentry_kill under memory pressure: reclaim about half the time so
      // re-opens alternate between the dcache-hit and d_alloc paths.
      if ((P::Random() & 1) != 0) {
        KillDentry(d);
      }
    }
    d.ref.lock.Unlock();
  }

  // The cmpxchg fast path: only while the spinlock looks free, retry a few
  // times (kernel CMPXCHG_LOOP).  Never transitions count through illegal
  // states: fails when the add would need the dead/zero handling.
  bool LockRefFastAdd(LockRef& ref, int delta) {
    for (int tries = 0; tries < kLockRefFastTries; ++tries) {
      if (ref.lock.RawValue() != 0) {
        return false;
      }
      int cur = ref.count.load(std::memory_order_relaxed);
      if (cur + delta <= 0) {
        return false;  // dropping the last reference: take the slow path
      }
      if (ref.count.compare_exchange_strong(cur, cur + delta,
                                            std::memory_order_acq_rel)) {
        return true;
      }
    }
    return false;
  }

  void KillDentry(Dentry& d) {
    d.dead = true;
    std::lock_guard<std::mutex> g(alloc_mu_);
    if (d.parent >= 0) {
      auto& siblings = dentries_[static_cast<std::size_t>(d.parent)].children;
      auto it = siblings.find(d.name);
      // Only unhash ourselves; a fresh namesake dentry may have replaced us.
      if (it != siblings.end() && it->second == d.self) {
        siblings.erase(it);
      }
    }
  }

  // d_alloc: allocate (or resurrect) a child dentry under the parent's lock.
  // alloc_mu_ guards only the plain container manipulation; every simulated
  // access happens outside it (see CreateDirectory's note).
  int DAlloc(Dentry& parent, int parent_idx, std::uint64_t name) {
    AcquireSpin(parent.ref.lock, kDAlloc);
    int idx = -1;
    bool lost_race = false;
    {
      std::lock_guard<std::mutex> g(alloc_mu_);
      auto it = parent.children.find(name);
      if (it != parent.children.end() &&
          !dentries_[static_cast<std::size_t>(it->second)].dead) {
        idx = it->second;  // lost the race to another opener
        lost_race = true;
      } else {
        dentries_.emplace_back();
        idx = static_cast<int>(dentries_.size()) - 1;
        Dentry& child = dentries_.back();
        child.inode = -1;
        child.parent = parent_idx;
        child.self = idx;
        child.name = name;
        child.data_id = NextDataId(2);
        parent.children[name] = idx;
      }
    }
    if (lost_race) {
      dentries_[static_cast<std::size_t>(idx)].ref.count.fetch_add(
          1, std::memory_order_relaxed);
      parent.ref.lock.Unlock();
      return idx;
    }
    dentries_[static_cast<std::size_t>(idx)].ref.count.store(
        1, std::memory_order_relaxed);
    P::OnDataAccess(parent.data_id + 1, /*write=*/true);
    parent.ref.lock.Unlock();
    // Allocate the backing inode outside the parent's lock (kernel: the
    // filesystem's create op).
    const int ino = CreateInode();
    dentries_[static_cast<std::size_t>(idx)].inode = ino;
    return idx;
  }

  std::uint64_t NextDataId(std::uint64_t span) {
    std::uint64_t id = next_data_id_;
    next_data_id_ += span + 8;  // keep objects on distinct modelled lines
    return id;
  }

  MiniVfsOptions options_;

  // files_struct.
  SpinLock files_lock_;
  std::vector<std::uint64_t> fd_bitmap_;
  std::vector<int> fd_to_inode_;
  std::vector<int> fd_to_dentry_;
  std::uint64_t files_data_id_ = 1 << 20;

  // Backing stores; deques for reference stability under growth.
  std::deque<Inode> inodes_;
  std::deque<Dentry> dentries_;
  std::mutex alloc_mu_;
  std::uint64_t next_data_id_ = 1 << 21;
};

}  // namespace cna::kernel

#endif  // CNA_KERNEL_MINIVFS_H_
