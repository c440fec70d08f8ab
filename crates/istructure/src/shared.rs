//! A thread-safe I-structure store for native parallel execution.
//!
//! The per-PE [`crate::ArrayMemory`] models the paper's distributed Array
//! Managers for the discrete-event simulator, where all accesses happen on
//! one simulation thread. The native execution engine instead runs iteration
//! instances on real OS threads, so it needs a store that many threads can
//! hit concurrently while preserving I-structure semantics:
//!
//! * **write-once cells** — a second write to an element is a
//!   single-assignment violation, exactly as in the sequential stores,
//! * **deferred readers** — a read of an absent element enqueues a
//!   caller-supplied waiter tag on the cell; the write that eventually fills
//!   the element hands all queued tags back to the writer so the caller can
//!   re-activate the blocked computations (the paper's "presence bit +
//!   deferred-read queue" protocol, §4.1, lifted onto threads).
//!
//! The waiter tag type `T` is opaque: the store only hands tags back to the
//! writer. The native engine's tags are plain `(instance, slot)` ids,
//! resolved against its job's parked-instance map and mailbox.
//!
//! Synchronisation is per-cell (`Mutex` around each element), so writes and
//! reads to distinct elements never contend, and the array directory is
//! *sharded*: a fixed number of `RwLock`ed maps keyed by array id, so
//! directory lookups of different arrays rarely touch the same lock and an
//! allocation write-locks only one shard. The store is shared between
//! workers via `Arc`; headers carry the same [`Partitioning`] the simulator
//! uses, so Range Filters compute identical per-worker responsibility
//! ranges in both execution modes.

use crate::error::IStructureError;
use crate::header::{ArrayHeader, ArrayId};
use crate::layout::{ArrayShape, Partitioning};
use crate::value::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Allocation statistics of a [`SharedArrayStore`], maintained with relaxed
/// atomics so sampling them never contends with the execution hot path.
///
/// `live` counts what the store currently holds; `peak` is the high-water
/// mark over the store's lifetime. Byte figures are *approximate*: each
/// array is costed as its header plus one locked cell per element
/// (`size_of::<Mutex<SharedCell<T>>>()`), which tracks the dominant term of
/// the real footprint but ignores deferred-reader queue growth. Until
/// array deallocation lands (the GC half of the array-lifecycle roadmap
/// item), nothing decrements the live counters, so `live == peak`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Arrays currently allocated in the store.
    pub live_arrays: usize,
    /// Most arrays ever simultaneously allocated.
    pub peak_arrays: usize,
    /// Approximate bytes currently held by allocated arrays.
    pub live_bytes: usize,
    /// Approximate high-water mark of `live_bytes`.
    pub peak_bytes: usize,
}

/// One write-once element cell with its deferred-reader queue.
#[derive(Debug)]
enum SharedCell<T> {
    /// Presence bit clear; the queue holds deferred-read waiter tags.
    Empty(Vec<T>),
    /// Presence bit set.
    Full(Value),
}

impl<T> Default for SharedCell<T> {
    fn default() -> Self {
        SharedCell::Empty(Vec::new())
    }
}

/// The result of a read against the shared store.
#[derive(Debug, Clone, PartialEq)]
pub enum SharedReadResult {
    /// The element was present.
    Present(Value),
    /// The element has not been written; the waiter tag was enqueued and
    /// will be handed to the writer that fills the element.
    Deferred,
}

/// One array held by the shared store.
#[derive(Debug)]
pub struct SharedArray<T> {
    header: ArrayHeader,
    cells: Vec<Mutex<SharedCell<T>>>,
}

impl<T> SharedArray<T> {
    /// The array header (shape, name, partitioning / responsibility ranges).
    pub fn header(&self) -> &ArrayHeader {
        &self.header
    }

    /// Reads the element at `offset`, enqueueing `waiter` if it is absent.
    ///
    /// # Errors
    ///
    /// Returns [`IStructureError::OutOfBounds`] for offsets past the end.
    pub fn read(&self, offset: usize, waiter: T) -> Result<SharedReadResult, IStructureError> {
        let cell = self.cells.get(offset).ok_or(IStructureError::OutOfBounds {
            array: self.header.id(),
            offset,
            len: self.cells.len(),
        })?;
        let mut guard = cell.lock().expect("shared cell poisoned");
        match &mut *guard {
            SharedCell::Full(v) => Ok(SharedReadResult::Present(*v)),
            SharedCell::Empty(queue) => {
                queue.push(waiter);
                Ok(SharedReadResult::Deferred)
            }
        }
    }

    /// Reads the element at `offset` without enqueueing a waiter.
    pub fn peek(&self, offset: usize) -> Option<Value> {
        let guard = self
            .cells
            .get(offset)?
            .lock()
            .expect("shared cell poisoned");
        match &*guard {
            SharedCell::Full(v) => Some(*v),
            SharedCell::Empty(_) => None,
        }
    }

    /// Writes the element at `offset`, returning the deferred waiters that
    /// were queued on it. The cell lock is released before the caller
    /// re-activates the waiters, so wake-up work never blocks other cells.
    ///
    /// # Errors
    ///
    /// Returns [`IStructureError::SingleAssignment`] on a second write and
    /// [`IStructureError::OutOfBounds`] for offsets past the end.
    pub fn write(&self, offset: usize, value: Value) -> Result<Vec<T>, IStructureError> {
        let cell = self.cells.get(offset).ok_or(IStructureError::OutOfBounds {
            array: self.header.id(),
            offset,
            len: self.cells.len(),
        })?;
        let mut guard = cell.lock().expect("shared cell poisoned");
        match std::mem::take(&mut *guard) {
            SharedCell::Full(prev) => {
                *guard = SharedCell::Full(prev);
                Err(IStructureError::SingleAssignment {
                    array: self.header.id(),
                    offset,
                })
            }
            SharedCell::Empty(waiters) => {
                *guard = SharedCell::Full(value);
                Ok(waiters)
            }
        }
    }

    /// Bulk-delivery form of [`SharedArray::write`]: writes the element and
    /// appends each deferred waiter, paired with the written value, to
    /// `sink`. Returns how many waiters were appended.
    ///
    /// This is the primitive behind batched wake-up delivery: a writer that
    /// fills many elements in one task accumulates all the `(waiter, value)`
    /// wake-ups in one reusable buffer and re-activates them in a single
    /// scheduler transaction, instead of paying a scheduler-lock round trip
    /// per write.
    ///
    /// # Errors
    ///
    /// Returns [`IStructureError::SingleAssignment`] on a second write and
    /// [`IStructureError::OutOfBounds`] for offsets past the end; `sink` is
    /// untouched on error.
    pub fn write_into(
        &self,
        offset: usize,
        value: Value,
        sink: &mut Vec<(T, Value)>,
    ) -> Result<usize, IStructureError> {
        let waiters = self.write(offset, value)?;
        let n = waiters.len();
        sink.extend(waiters.into_iter().map(|w| (w, value)));
        Ok(n)
    }

    /// Snapshot of every element (`None` = never written), row-major.
    pub fn snapshot(&self) -> Vec<Option<Value>> {
        self.cells
            .iter()
            .map(|c| match &*c.lock().expect("shared cell poisoned") {
                SharedCell::Full(v) => Some(*v),
                SharedCell::Empty(_) => None,
            })
            .collect()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` when the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Number of fixed directory shards. Arrays land on `id % 16`; ids are
/// assigned sequentially by the engines, so consecutive allocations spread
/// round-robin across the shards.
const DIRECTORY_SHARDS: usize = 16;

/// A concurrent, `Arc`-shared directory of I-structure arrays.
///
/// The waiter tag type `T` identifies the blocked computation to re-activate
/// when a deferred element is finally written: the native engine uses an
/// `(instance, slot)` pair resolved against its job's parked instances.
///
/// The directory is split into a fixed number of independently locked
/// maps (16 shards) keyed by array id. Per-task caching already hides directory lookups
/// on the hot path; sharding removes the residual cold-path contention —
/// first-touch lookups and allocations of distinct arrays proceed in
/// parallel instead of serialising on one `RwLock`.
#[derive(Debug)]
pub struct SharedArrayStore<T> {
    shards: Vec<RwLock<HashMap<ArrayId, Arc<SharedArray<T>>>>>,
    /// Allocation order, so result snapshots match the simulator's.
    order: Mutex<Vec<ArrayId>>,
    /// Arrays currently allocated (see [`StoreStats`]).
    live_arrays: AtomicUsize,
    /// High-water mark of `live_arrays`.
    peak_arrays: AtomicUsize,
    /// Approximate bytes currently held by allocated arrays.
    live_bytes: AtomicUsize,
    /// High-water mark of `live_bytes`.
    peak_bytes: AtomicUsize,
}

impl<T> Default for SharedArrayStore<T> {
    fn default() -> Self {
        SharedArrayStore {
            shards: (0..DIRECTORY_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            order: Mutex::new(Vec::new()),
            live_arrays: AtomicUsize::new(0),
            peak_arrays: AtomicUsize::new(0),
            live_bytes: AtomicUsize::new(0),
            peak_bytes: AtomicUsize::new(0),
        }
    }
}

impl<T> SharedArrayStore<T> {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shard holding (or destined to hold) the given array.
    fn shard(&self, id: ArrayId) -> &RwLock<HashMap<ArrayId, Arc<SharedArray<T>>>> {
        &self.shards[id.0 % DIRECTORY_SHARDS]
    }

    /// Allocates an array with the given header parameters.
    ///
    /// # Errors
    ///
    /// Returns [`IStructureError::InvalidShape`] for zero-sized shapes and
    /// [`IStructureError::DuplicateArray`] if the identifier is already in
    /// use.
    pub fn allocate(
        &self,
        id: ArrayId,
        name: impl Into<String>,
        shape: ArrayShape,
        partitioning: Partitioning,
    ) -> Result<(), IStructureError> {
        if shape.is_degenerate() {
            return Err(IStructureError::InvalidShape {
                dims: shape.dims().to_vec(),
            });
        }
        let header = ArrayHeader::new(id, name, shape, partitioning);
        let len = header.len();
        let array = Arc::new(SharedArray {
            header,
            cells: (0..len)
                .map(|_| Mutex::new(SharedCell::default()))
                .collect(),
        });
        let mut arrays = self.shard(id).write().expect("shared store poisoned");
        if arrays.contains_key(&id) {
            return Err(IStructureError::DuplicateArray { array: id });
        }
        arrays.insert(id, array);
        // Take the order lock while still holding the shard write lock so a
        // racing duplicate allocate of the *same* id cannot interleave
        // between the insert and the order push (allocations of different
        // ids may interleave freely — whichever push lands first *is* the
        // allocation order).
        self.order.lock().expect("shared store poisoned").push(id);
        let bytes =
            std::mem::size_of::<ArrayHeader>() + len * std::mem::size_of::<Mutex<SharedCell<T>>>();
        let live = self.live_arrays.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_arrays.fetch_max(live, Ordering::Relaxed);
        let live_bytes = self.live_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_bytes.fetch_max(live_bytes, Ordering::Relaxed);
        Ok(())
    }

    /// Current/peak allocation counters (relaxed-atomic snapshot; safe to
    /// sample from any thread while jobs run).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            live_arrays: self.live_arrays.load(Ordering::Relaxed),
            peak_arrays: self.peak_arrays.load(Ordering::Relaxed),
            live_bytes: self.live_bytes.load(Ordering::Relaxed),
            peak_bytes: self.peak_bytes.load(Ordering::Relaxed),
        }
    }

    /// The array with the given id, if allocated. Read-locks only the
    /// shard the id hashes to.
    pub fn array(&self, id: ArrayId) -> Option<Arc<SharedArray<T>>> {
        self.shard(id)
            .read()
            .expect("shared store poisoned")
            .get(&id)
            .cloned()
    }

    /// The array or an [`IStructureError::UnknownArray`] error.
    pub fn require(&self, id: ArrayId) -> Result<Arc<SharedArray<T>>, IStructureError> {
        self.array(id)
            .ok_or(IStructureError::UnknownArray { array: id })
    }

    /// Number of arrays allocated so far.
    pub fn num_arrays(&self) -> usize {
        self.order.lock().expect("shared store poisoned").len()
    }

    /// Snapshots of every array in allocation order:
    /// `(id, name, shape, values)`.
    pub fn snapshots(&self) -> Vec<(ArrayId, String, ArrayShape, Vec<Option<Value>>)> {
        let order = self.order.lock().expect("shared store poisoned").clone();
        order
            .iter()
            .filter_map(|id| self.array(*id))
            .map(|a| {
                (
                    a.header.id(),
                    a.header.name().to_string(),
                    a.header.shape().clone(),
                    a.snapshot(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PeId;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    fn store() -> SharedArrayStore<usize> {
        let s = SharedArrayStore::new();
        let shape = ArrayShape::matrix(4, 8);
        let part = Partitioning::new(shape.len(), 8, 2);
        s.allocate(ArrayId(0), "a", shape, part).unwrap();
        s
    }

    #[test]
    fn write_once_and_deferred_wakeup() {
        let s = store();
        let a = s.require(ArrayId(0)).unwrap();
        assert_eq!(a.read(3, 11).unwrap(), SharedReadResult::Deferred);
        assert_eq!(a.read(3, 22).unwrap(), SharedReadResult::Deferred);
        let woken = a.write(3, Value::Int(9)).unwrap();
        assert_eq!(woken, vec![11, 22]);
        assert_eq!(
            a.read(3, 33).unwrap(),
            SharedReadResult::Present(Value::Int(9))
        );
        assert!(matches!(
            a.write(3, Value::Int(1)),
            Err(IStructureError::SingleAssignment { .. })
        ));
        assert_eq!(a.peek(3), Some(Value::Int(9)));
        assert_eq!(a.peek(4), None);
    }

    #[test]
    fn write_into_appends_waiter_value_pairs_without_allocating_per_write() {
        let s = store();
        let a = s.require(ArrayId(0)).unwrap();
        assert_eq!(a.read(0, 1).unwrap(), SharedReadResult::Deferred);
        assert_eq!(a.read(0, 2).unwrap(), SharedReadResult::Deferred);
        assert_eq!(a.read(5, 3).unwrap(), SharedReadResult::Deferred);
        let mut sink = Vec::new();
        assert_eq!(a.write_into(0, Value::Int(10), &mut sink).unwrap(), 2);
        assert_eq!(a.write_into(4, Value::Int(40), &mut sink).unwrap(), 0);
        assert_eq!(a.write_into(5, Value::Int(50), &mut sink).unwrap(), 1);
        assert_eq!(
            sink,
            vec![
                (1, Value::Int(10)),
                (2, Value::Int(10)),
                (3, Value::Int(50))
            ]
        );
        // Errors leave the sink untouched.
        assert!(matches!(
            a.write_into(0, Value::Int(1), &mut sink),
            Err(IStructureError::SingleAssignment { .. })
        ));
        assert!(matches!(
            a.write_into(999, Value::Int(1), &mut sink),
            Err(IStructureError::OutOfBounds { .. })
        ));
        assert_eq!(sink.len(), 3);
    }

    #[test]
    fn bounds_and_unknown_arrays_are_errors() {
        let s = store();
        let a = s.require(ArrayId(0)).unwrap();
        assert!(matches!(
            a.read(999, 0),
            Err(IStructureError::OutOfBounds { .. })
        ));
        assert!(matches!(
            a.write(999, Value::Int(0)),
            Err(IStructureError::OutOfBounds { .. })
        ));
        assert!(s.require(ArrayId(7)).is_err());
        assert!(matches!(
            s.allocate(
                ArrayId(1),
                "bad",
                ArrayShape::new(vec![0]),
                Partitioning::new(0, 8, 1)
            ),
            Err(IStructureError::InvalidShape { .. })
        ));
        assert!(matches!(
            s.allocate(
                ArrayId(0),
                "again",
                ArrayShape::vector(2),
                Partitioning::new(2, 8, 1)
            ),
            Err(IStructureError::DuplicateArray { .. })
        ));
        assert_eq!(s.num_arrays(), 1);
        assert_eq!(s.snapshots().len(), 1);
    }

    #[test]
    fn snapshots_follow_allocation_order() {
        let s = store();
        s.allocate(
            ArrayId(1),
            "b",
            ArrayShape::vector(3),
            Partitioning::single_owner(3, 8, 2, PeId(1)),
        )
        .unwrap();
        s.require(ArrayId(1))
            .unwrap()
            .write(0, Value::Bool(true))
            .unwrap();
        let snaps = s.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].1, "a");
        assert_eq!(snaps[1].1, "b");
        assert_eq!(snaps[1].3[0], Some(Value::Bool(true)));
        assert_eq!(s.num_arrays(), 2);
    }

    #[test]
    fn sharded_directory_preserves_order_ids_and_duplicate_detection() {
        // More arrays than shards, allocated from several threads: every id
        // resolvable, allocation order = push order, duplicates of an id
        // already in a shard still rejected, and `num_arrays` exact.
        let s = Arc::new(SharedArrayStore::<usize>::new());
        let per_thread = 2 * DIRECTORY_SHARDS;
        let threads = 4;
        let mut handles = Vec::new();
        for t in 0..threads {
            let s = Arc::clone(&s);
            handles.push(thread::spawn(move || {
                for k in 0..per_thread {
                    let id = ArrayId(t * per_thread + k);
                    s.allocate(
                        id,
                        format!("a{}", id.0),
                        ArrayShape::vector(1 + id.0 % 3),
                        Partitioning::new(1 + id.0 % 3, 8, 2),
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = threads * per_thread;
        assert_eq!(s.num_arrays(), total);
        for id in 0..total {
            let a = s.require(ArrayId(id)).unwrap();
            assert_eq!(a.header().id(), ArrayId(id));
            assert_eq!(a.header().name(), format!("a{id}"));
            // Allocating the same id again fails regardless of which shard
            // it lives in.
            assert!(matches!(
                s.allocate(
                    ArrayId(id),
                    "dup",
                    ArrayShape::vector(1),
                    Partitioning::new(1, 8, 1)
                ),
                Err(IStructureError::DuplicateArray { .. })
            ));
        }
        // Snapshots follow the recorded allocation order exactly and cover
        // every array once.
        let snaps = s.snapshots();
        assert_eq!(snaps.len(), total);
        let mut seen: Vec<usize> = snaps.iter().map(|(id, ..)| id.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_disjoint_writes_fill_the_array() {
        let s = Arc::new(SharedArrayStore::<usize>::new());
        let shape = ArrayShape::matrix(8, 32);
        let n = shape.len();
        s.allocate(ArrayId(0), "c", shape, Partitioning::new(n, 32, 4))
            .unwrap();
        let mut handles = Vec::new();
        for t in 0..4usize {
            let s = Arc::clone(&s);
            handles.push(thread::spawn(move || {
                let a = s.require(ArrayId(0)).unwrap();
                for offset in (t..n).step_by(4) {
                    a.write(offset, Value::Int(offset as i64)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = s.require(ArrayId(0)).unwrap().snapshot();
        assert!(snap
            .iter()
            .enumerate()
            .all(|(i, v)| *v == Some(Value::Int(i as i64))));
    }

    #[test]
    fn racing_writers_to_one_cell_produce_exactly_one_winner() {
        let s = Arc::new(SharedArrayStore::<usize>::new());
        s.allocate(
            ArrayId(0),
            "r",
            ArrayShape::vector(1),
            Partitioning::new(1, 8, 1),
        )
        .unwrap();
        let wins = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..8usize {
            let s = Arc::clone(&s);
            let wins = Arc::clone(&wins);
            handles.push(thread::spawn(move || {
                let a = s.require(ArrayId(0)).unwrap();
                if a.write(0, Value::Int(t as i64)).is_ok() {
                    wins.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(wins.load(Ordering::SeqCst), 1);
        assert!(s.require(ArrayId(0)).unwrap().peek(0).is_some());
    }

    #[test]
    fn store_stats_track_allocations() {
        let s = SharedArrayStore::<usize>::new();
        assert_eq!(s.stats(), StoreStats::default());
        s.allocate(
            ArrayId(0),
            "a",
            ArrayShape::vector(4),
            Partitioning::new(4, 8, 1),
        )
        .unwrap();
        let one = s.stats();
        assert_eq!(one.live_arrays, 1);
        assert_eq!(one.peak_arrays, 1);
        assert!(one.live_bytes >= 4 * std::mem::size_of::<Value>());
        assert_eq!(one.live_bytes, one.peak_bytes);
        s.allocate(
            ArrayId(1),
            "b",
            ArrayShape::matrix(8, 8),
            Partitioning::new(64, 8, 2),
        )
        .unwrap();
        let two = s.stats();
        assert_eq!(two.live_arrays, 2);
        assert_eq!(two.peak_arrays, 2);
        assert!(two.live_bytes > one.live_bytes);
        // No deallocation yet: live always equals peak.
        assert_eq!(two.live_bytes, two.peak_bytes);
        // Failed allocations leave the counters untouched.
        assert!(s
            .allocate(
                ArrayId(1),
                "dup",
                ArrayShape::vector(1),
                Partitioning::new(1, 8, 1)
            )
            .is_err());
        assert_eq!(s.stats(), two);
    }
}
