//! Durability: a write-ahead log + checkpoints for [`HeapPool`] (DESIGN.md
//! §15).
//!
//! The pooled arena is a single contiguous slab — the ideal persistence
//! unit. This module makes it survive restarts with the classic redo-log
//! discipline:
//!
//! * **WAL** (`wal.log`): every logical mutation is appended *before* it is
//!   applied in memory. Records are fixed-width `u64` little-endian words —
//!   `[N][payload × N][crc]` — where the trailer word is FNV-1a folded one
//!   64-bit word at a time over the length word plus payload (the chaos
//!   network's trailer-word idea, widened from bytes to words so hashing a
//!   multi-KiB `from_keys` record costs ⅛ the multiplies and stays off the
//!   append path's critical ns budget). The payload is `[seq, tag, args…]`.
//! * **Checkpoints** (`checkpoint.bin`): the whole slab + root tables in
//!   the same fixed-width `u64` LE words, encoded into a per-thread buffer
//!   reused across checkpoints, written to a temp file, `sync_data`ed and
//!   atomically renamed:
//!
//!   ```text
//!   [magic|version] [seq] [S]                  header, S = slab slots
//!   S × ( [DEAD]                               dead slot (on the free list)
//!       | [d] [key] [parent|NONE] [child × d]) live node of degree d
//!   [F] [free id × F]                          arena free list, pop order
//!   [H] H × [slot] [gen] [len] [R] [root|NONE × R]   live heaps, slot-ascending
//!   [P] P × [slot] [next gen]                  recyclable handle slots
//!   [crc]                                      FNV-1a per word over all above
//!   ```
//!
//!   `DEAD` and `NONE` are `u64::MAX`. The reader bounds-checks every word
//!   and never panics. A malformed image — bad length, CRC, magic or
//!   version, an id at or past `S`, a count the file cannot hold, a heap
//!   slot out of order or repeated — is refused before anything is
//!   allocated for it; one that parses but does not fit together (a link
//!   to a dead node, free list vs dead slots, a free slot that is live or
//!   listed twice, a pool failing `check_pool`) is refused once built. A
//!   checkpoint only bounds replay work; the WAL keeps its full history,
//!   so a missing or refused checkpoint degrades to a full genesis replay,
//!   never to data loss. A `checkpoint.json` left by the earlier JSON
//!   format is never opened, so it too means genesis replay.
//! * **Recovery** ([`HeapPool::recover`] / [`recover_dir`]): load the last
//!   valid checkpoint (if any), replay every WAL record with a later
//!   sequence number, and truncate the log at the first torn or
//!   CRC-failing record. The recovered pool must pass
//!   [`check_pool`](crate::check::check_pool) before it is served.
//!
//! Torn-write rules: a record is accepted iff it is completely present and
//! its trailer CRC matches; the first rejected record ends the log — all
//! prior records are preserved, everything from the tear onward is
//! discarded (and physically truncated, so the next append starts on a
//! record boundary). Because appends happen *ahead* of the in-memory
//! mutation, the recovered state can only be **ahead** of what a crashed
//! process had applied, never behind what it acknowledged.

use std::cell::RefCell;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use obs::flight::{self, EventKind};

use crate::arena::{Arena, Node, NodeId};
use crate::check::check_pool;
use crate::heap::Engine;
use crate::pool::{CapacityError, HeapPool, PooledHeap};

/// The log file inside a durability directory.
pub const WAL_FILE: &str = "wal.log";
/// The checkpoint file inside a durability directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";

/// Upper bound on a record's payload word count — anything larger is
/// treated as a tear (a real record of this size would be a ~0.5 GiB
/// `from_keys`, far beyond any admission path).
const MAX_PAYLOAD_WORDS: u64 = 1 << 26;

// FNV-1a, the same constants as the chaos network's frame trailer.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step, folding a whole `u64` word.
fn fnv_step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// Word-granular FNV-1a for WAL record and checkpoint trailers: one
/// xor+multiply per `u64` word instead of per byte. Records are all-words
/// already, and a bulk `FromKeys` record can be multiple KiB — the byte
/// loop's serial multiply chain (~1 ns/byte) would dominate the append path
/// that the `wal_append_overhead` bench gate bounds at 1.15×.
fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(FNV_OFFSET, fnv_step)
}

/// One logical pool mutation, as logged. Slots and generations are the
/// *caller's* handle space (the service's queue table or
/// [`DurablePool`]'s slot table) so recovered handles stay valid across a
/// restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// A heap was created at `slot` with generation `gen`.
    CreateHeap {
        /// Slot index in the owner's table.
        slot: u32,
        /// Generation stamped into handles for this incarnation.
        gen: u32,
    },
    /// One key was inserted into the heap at `slot`.
    Insert {
        /// Target slot.
        slot: u32,
        /// The inserted key.
        key: i64,
    },
    /// A bulk build was melded into the heap at `slot`.
    FromKeys {
        /// Target slot.
        slot: u32,
        /// The admitted keys, in submission order.
        keys: Vec<i64>,
    },
    /// `Extract-Min` ran against the heap at `slot`.
    ExtractMin {
        /// Target slot.
        slot: u32,
    },
    /// `Multi-Extract-Min(k)` ran against the heap at `slot`.
    MultiExtractMin {
        /// Target slot.
        slot: u32,
        /// Number of keys requested (clamped to the heap length on apply).
        k: u64,
    },
    /// The heap at `src` was melded into the heap at `dst`; `src` died.
    Meld {
        /// Surviving slot.
        dst: u32,
        /// Consumed slot.
        src: u32,
    },
    /// The heap at `slot` was destroyed.
    FreeHeap {
        /// Target slot.
        slot: u32,
    },
}

impl WalOp {
    fn tag(&self) -> u64 {
        match self {
            WalOp::CreateHeap { .. } => 1,
            WalOp::Insert { .. } => 2,
            WalOp::FromKeys { .. } => 3,
            WalOp::ExtractMin { .. } => 4,
            WalOp::MultiExtractMin { .. } => 5,
            WalOp::Meld { .. } => 6,
            WalOp::FreeHeap { .. } => 7,
        }
    }

    fn arg_words(&self, out: &mut Vec<u64>) {
        match self {
            WalOp::CreateHeap { slot, gen } => out.extend([*slot as u64, *gen as u64]),
            WalOp::Insert { slot, key } => out.extend([*slot as u64, *key as u64]),
            WalOp::FromKeys { slot, keys } => {
                out.push(*slot as u64);
                out.push(keys.len() as u64);
                out.extend(keys.iter().map(|k| *k as u64));
            }
            WalOp::ExtractMin { slot } => out.push(*slot as u64),
            WalOp::MultiExtractMin { slot, k } => out.extend([*slot as u64, *k]),
            WalOp::Meld { dst, src } => out.extend([*dst as u64, *src as u64]),
            WalOp::FreeHeap { slot } => out.push(*slot as u64),
        }
    }

    /// Decode from the payload words that follow `[seq, tag]`.
    fn from_words(tag: u64, args: &[u64]) -> Option<WalOp> {
        let slot32 = |w: u64| u32::try_from(w).ok();
        match tag {
            1 => Some(WalOp::CreateHeap {
                slot: slot32(*args.first()?)?,
                gen: slot32(*args.get(1)?)?,
            }),
            2 => Some(WalOp::Insert {
                slot: slot32(*args.first()?)?,
                key: *args.get(1)? as i64,
            }),
            3 => {
                let slot = slot32(*args.first()?)?;
                let n = usize::try_from(*args.get(1)?).ok()?;
                let words = args.get(2..)?;
                if words.len() != n {
                    return None;
                }
                Some(WalOp::FromKeys {
                    slot,
                    keys: words.iter().map(|w| *w as i64).collect(),
                })
            }
            4 => Some(WalOp::ExtractMin {
                slot: slot32(*args.first()?)?,
            }),
            5 => Some(WalOp::MultiExtractMin {
                slot: slot32(*args.first()?)?,
                k: *args.get(1)?,
            }),
            6 => Some(WalOp::Meld {
                dst: slot32(*args.first()?)?,
                src: slot32(*args.get(1)?)?,
            }),
            7 => Some(WalOp::FreeHeap {
                slot: slot32(*args.first()?)?,
            }),
            _ => None,
        }
    }
}

/// Encode one record: `[N][seq, tag, args…][crc]`, all `u64` LE.
fn encode_record(seq: u64, op: &WalOp) -> Vec<u8> {
    let mut words: Vec<u64> = vec![seq, op.tag()];
    op.arg_words(&mut words);
    let n = words.len() as u64;
    let crc = fnv1a_words(std::iter::once(n).chain(words.iter().copied()));
    let mut bytes = Vec::with_capacity(8 * (words.len() + 2));
    bytes.extend_from_slice(&n.to_le_bytes());
    for w in &words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// A durability failure.
#[derive(Debug)]
pub enum WalError {
    /// The underlying file system said no.
    Io(std::io::Error),
    /// The log or checkpoint is internally inconsistent beyond the
    /// torn-tail rules (e.g. a replayed op names an occupied slot, or the
    /// recovered pool fails `check_pool`).
    Corrupt {
        /// Sequence number of the offending record (0 when unknown).
        seq: u64,
        /// What was wrong.
        reason: String,
    },
    /// An op named a slot with no live heap.
    UnknownSlot(u32),
    /// A logged bulk build no longer fits the `u32` id space.
    Capacity(CapacityError),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt { seq, reason } => {
                write!(f, "wal corrupt at seq {seq}: {reason}")
            }
            WalError::UnknownSlot(s) => write!(f, "wal op names unknown slot {s}"),
            WalError::Capacity(e) => write!(f, "wal replay refused: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<CapacityError> for WalError {
    fn from(e: CapacityError) -> Self {
        WalError::Capacity(e)
    }
}

/// Appender for one WAL file. Buffered; [`WalWriter::flush`] pushes the
/// bytes to the OS (surviving a process kill), [`WalWriter::sync`] forces
/// them to the device.
#[derive(Debug)]
pub struct WalWriter {
    file: BufWriter<File>,
    next_seq: u64,
    bytes: u64,
}

impl WalWriter {
    /// Create (or truncate) a fresh log at `path`; sequence numbers start
    /// at 1.
    pub fn create(path: &Path) -> std::io::Result<WalWriter> {
        let file = File::create(path)?;
        Ok(WalWriter {
            file: BufWriter::new(file),
            next_seq: 1,
            bytes: 0,
        })
    }

    /// Open `path` for appending after recovery decided `next_seq`.
    pub fn append_to(path: &Path, next_seq: u64) -> std::io::Result<WalWriter> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let bytes = file.metadata()?.len();
        Ok(WalWriter {
            file: BufWriter::new(file),
            next_seq,
            bytes,
        })
    }

    /// Append one op, returning the sequence number it was logged under.
    pub fn append(&mut self, op: &WalOp) -> std::io::Result<u64> {
        let seq = self.next_seq;
        let rec = encode_record(seq, op);
        self.file.write_all(&rec)?;
        self.next_seq += 1;
        self.bytes += rec.len() as u64;
        flight::record_here(EventKind::WalAppend, rec.len() as u64);
        Ok(seq)
    }

    /// Push buffered records to the OS. Call before applying the op in
    /// memory — that ordering is the whole write-ahead contract.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }

    /// Flush and `fsync` to the device (checkpoint boundaries).
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.flush()?;
        self.file.get_ref().sync_data()
    }

    /// The sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Total bytes in the log including this writer's appends — the byte
    /// offset a crash harness can cut at.
    pub fn bytes_logged(&self) -> u64 {
        self.bytes
    }
}

/// The readable prefix of a WAL file.
#[derive(Debug, Default)]
pub struct WalRead {
    /// Every record that survived framing + CRC, in log order.
    pub records: Vec<(u64, WalOp)>,
    /// Byte length of the valid prefix (recovery truncates to this).
    pub valid_len: u64,
    /// Byte length of the file as found on disk.
    pub file_len: u64,
}

/// Read a WAL, stopping at the first torn or CRC-failing record. A missing
/// file reads as empty — genesis is an absent log.
pub fn read_wal(path: &Path) -> std::io::Result<WalRead> {
    let mut buf = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut buf)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let mut out = WalRead {
        file_len: buf.len() as u64,
        ..WalRead::default()
    };
    let word = |at: usize| -> u64 {
        let mut w = [0u8; 8];
        w.copy_from_slice(&buf[at..at + 8]);
        u64::from_le_bytes(w)
    };
    let mut pos = 0usize;
    while pos + 8 <= buf.len() {
        let n = word(pos);
        // Payload must at least hold [seq, tag]; an absurd length is a tear.
        if !(2..=MAX_PAYLOAD_WORDS).contains(&n) {
            break;
        }
        let n = n as usize;
        let total = 8 * (n + 2);
        let Some(end) = pos.checked_add(total) else {
            break;
        };
        if end > buf.len() {
            break;
        }
        let crc = fnv1a_words((0..=n).map(|i| word(pos + 8 * i)));
        if crc != word(pos + 8 * (n + 1)) {
            break;
        }
        let seq = word(pos + 8);
        let tag = word(pos + 16);
        let args: Vec<u64> = (2..n).map(|i| word(pos + 8 * (1 + i))).collect();
        let Some(op) = WalOp::from_words(tag, &args) else {
            break;
        };
        out.records.push((seq, op));
        pos = end;
        out.valid_len = pos as u64;
    }
    Ok(out)
}

/// Physically truncate a log to its valid prefix.
pub fn truncate_wal(path: &Path, len: u64) -> std::io::Result<()> {
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(len)
}

/// First word of a checkpoint: ASCII `MPQCKPT` plus a format version byte.
const CHECKPOINT_MAGIC: u64 = u64::from_le_bytes(*b"MPQCKPT\x01");

/// A dead slab slot, an absent parent, an empty root position.
const NONE_WORD: u64 = u64::MAX;

fn none_or(id: Option<NodeId>) -> u64 {
    id.map_or(NONE_WORD, |id| id.0 as u64)
}

thread_local! {
    /// Checkpoint image buffer, kept per thread so the slab-sized
    /// allocation is made once, not once per checkpoint.
    static CHECKPOINT_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Appends `u64` LE words to the image buffer, folding each into the
/// FNV-1a trailer as it goes.
struct ImageWriter<'a> {
    buf: &'a mut Vec<u8>,
    crc: u64,
}

impl ImageWriter<'_> {
    fn put(&mut self, words: impl IntoIterator<Item = u64>) {
        for w in words {
            self.crc = fnv_step(self.crc, w);
            self.buf.extend_from_slice(&w.to_le_bytes());
        }
    }
}

/// Encode the checkpoint image, trailer included, into `buf`.
fn encode_checkpoint(
    buf: &mut Vec<u8>,
    seq: u64,
    pool: &HeapPool<i64>,
    heaps: &[(u32, u32, &PooledHeap)],
    free_slots: &[(u32, u32)],
) {
    let (slab, free) = (pool.arena().raw_slots(), pool.arena().free_list());
    buf.clear();
    let mut out = ImageWriter {
        buf,
        crc: FNV_OFFSET,
    };
    out.put([CHECKPOINT_MAGIC, seq, slab.len() as u64]);
    for slot in slab {
        match slot {
            None => out.put([NONE_WORD]),
            Some(n) => {
                out.put([n.children.len() as u64, n.key as u64, none_or(n.parent)]);
                out.put(n.children.iter().map(|c| c.0 as u64));
            }
        }
    }
    out.put([free.len() as u64]);
    out.put(free.iter().map(|&f| f as u64));
    out.put([heaps.len() as u64]);
    for &(slot, gen, h) in heaps {
        let roots = h.roots();
        out.put([slot as u64, gen as u64, h.len() as u64, roots.len() as u64]);
        out.put(roots.iter().map(|&r| none_or(r)));
    }
    out.put([free_slots.len() as u64]);
    out.put(free_slots.iter().flat_map(|&(s, g)| [s as u64, g as u64]));
    let crc = out.crc;
    out.buf.extend_from_slice(&crc.to_le_bytes());
}

/// Write the slab + root tables to `dir/checkpoint.bin` under checkpoint
/// sequence `seq` (replay then skips every record with `seq' <= seq`): the
/// word image goes to a temp file, is `sync_data`ed, then atomically
/// renamed over the previous checkpoint. `heaps` must come in strictly
/// ascending slot order.
pub fn write_checkpoint<'a, I>(
    dir: &Path,
    seq: u64,
    pool: &HeapPool<i64>,
    heaps: I,
    free_slots: &[(u32, u32)],
) -> std::io::Result<()>
where
    I: IntoIterator<Item = (u32, u32, &'a PooledHeap)>,
{
    let heaps: Vec<(u32, u32, &PooledHeap)> = heaps.into_iter().collect();
    if heaps.windows(2).any(|w| w[0].0 >= w[1].0) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "checkpoint heap slots must be strictly ascending",
        ));
    }
    let tmp = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
    CHECKPOINT_BUF.with_borrow_mut(|buf| {
        encode_checkpoint(buf, seq, pool, &heaps, free_slots);
        let mut f = File::create(&tmp)?;
        f.write_all(buf)?;
        f.sync_data()
    })?;
    std::fs::rename(&tmp, dir.join(CHECKPOINT_FILE))?;
    flight::record_here(EventKind::Checkpoint, seq);
    Ok(())
}

/// Bounds-checked cursor over the words of a checkpoint body.
struct WordReader<'a>(std::slice::ChunksExact<'a, u8>);

impl WordReader<'_> {
    fn next(&mut self) -> Option<u64> {
        self.0.next()?.try_into().ok().map(u64::from_le_bytes)
    }

    fn left(&self) -> usize {
        self.0.len()
    }

    /// `n` items of at least `min_words` words each, if the rest of the
    /// image can hold them — so no count ever sizes an allocation that
    /// the file does not back.
    fn backed(&self, n: u64, min_words: usize) -> Option<usize> {
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= self.left() / min_words)
    }

    /// A count prefix, checked with [`WordReader::backed`].
    fn count(&mut self, min_words: usize) -> Option<usize> {
        let n = self.next()?;
        self.backed(n, min_words)
    }

    fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.next()?).ok()
    }
}

/// A checkpoint body decoded into plain parts.
#[derive(Default)]
struct Image {
    seq: u64,
    nodes: Vec<Option<Node<i64>>>,
    free: Vec<u32>,
    /// `(slot, gen, len, roots)`, ascending by slot.
    heaps: Vec<(u32, u32, usize, Vec<Option<NodeId>>)>,
    free_slots: Vec<(u32, u32)>,
    /// Length of the owner's slot table: one past the highest live or
    /// free slot.
    table_len: usize,
}

/// Walk a checkpoint body (the words before the trailer). Any malformed
/// input yields `None`, never a panic. With `build == false` nothing is
/// stored: recovery runs that pass first, so an image is refused before
/// anything is allocated for it.
fn parse_image(body: &[u8], build: bool) -> Option<Image> {
    let mut r = WordReader(body.chunks_exact(8));
    if r.next()? != CHECKPOINT_MAGIC {
        return None;
    }
    let mut img = Image {
        seq: r.next()?,
        ..Image::default()
    };
    // A dead slot is one word; ids are u32, so at most 2^32 slots.
    let slots = r.count(1)? as u64;
    if slots > 1 << 32 {
        return None;
    }
    let id = |w: u64| (w < slots).then_some(NodeId(w as u32));
    let id_or_none = |w: u64| {
        if w == NONE_WORD {
            Some(None)
        } else {
            id(w).map(Some)
        }
    };
    img.nodes
        .reserve_exact(if build { slots as usize } else { 0 });
    for _ in 0..slots {
        let degree = r.next()?;
        let node = if degree == NONE_WORD {
            None
        } else {
            let key = r.next()? as i64;
            let parent = id_or_none(r.next()?)?;
            let degree = r.backed(degree, 1)?;
            let mut children = Vec::with_capacity(if build { degree } else { 0 });
            for _ in 0..degree {
                let c = id(r.next()?)?;
                if build {
                    children.push(c);
                }
            }
            Some(Node {
                key,
                parent,
                children,
            })
        };
        if build {
            img.nodes.push(node);
        }
    }
    for _ in 0..r.count(1)? {
        let f = id(r.next()?)?.0;
        if build {
            img.free.push(f);
        }
    }
    // Slots strictly ascend, which also rules out a slot appearing twice.
    let heaps = r.count(4)?;
    let mut table_len = 0u64;
    for _ in 0..heaps {
        let (slot, gen) = (r.u32()?, r.u32()?);
        if (slot as u64) < table_len {
            return None;
        }
        table_len = slot as u64 + 1;
        let len = usize::try_from(r.next()?).ok()?;
        let mut roots = Vec::new();
        for _ in 0..r.count(1)? {
            let root = id_or_none(r.next()?)?;
            if build {
                roots.push(root);
            }
        }
        if build {
            img.heaps.push((slot, gen, len, roots));
        }
    }
    let pairs = r.count(2)?;
    for _ in 0..pairs {
        let (slot, gen) = (r.u32()?, r.u32()?);
        table_len = table_len.max(slot as u64 + 1);
        if build {
            img.free_slots.push((slot, gen));
        }
    }
    // Every table slot is live or free, and nothing trails the tables.
    if table_len > (heaps + pairs) as u64 || r.left() != 0 {
        return None;
    }
    img.table_len = table_len as usize;
    Some(img)
}

/// A checkpoint decoded back into live structures.
struct RecoveredCheckpoint {
    seq: u64,
    pool: HeapPool<i64>,
    heaps: Vec<Option<(u32, PooledHeap)>>,
    free_slots: Vec<(u32, u32)>,
}

/// Decode a checkpoint file's bytes. Any failure — bad length, CRC
/// mismatch, wrong magic, an out-of-range id or count, an inconsistent
/// free list — yields `None`.
fn decode_checkpoint(bytes: &[u8], engine: Engine) -> Option<RecoveredCheckpoint> {
    if !bytes.len().is_multiple_of(8) {
        return None;
    }
    let (body, trailer) = bytes.split_at(bytes.len().checked_sub(8)?);
    let mut words = WordReader(body.chunks_exact(8));
    if fnv1a_words(std::iter::from_fn(|| words.next())).to_le_bytes() != trailer {
        return None;
    }
    parse_image(body, false)?;
    let img = parse_image(body, true)?;
    // Links must name live nodes: the structural checks below dereference
    // them.
    let live = |id: &NodeId| matches!(img.nodes.get(id.0 as usize), Some(Some(_)));
    let mut links = img.nodes.iter().flatten();
    if !links.all(|n| n.parent.iter().chain(&n.children).all(live)) {
        return None;
    }
    let arena = Arena::from_raw_parts(img.nodes, img.free)?;
    let pool = HeapPool::from_arena(arena, engine);
    let mut heaps: Vec<Option<(u32, PooledHeap)>> = Vec::new();
    heaps.resize_with(img.table_len, || None);
    for (slot, gen, len, roots) in img.heaps {
        *heaps.get_mut(slot as usize)? = Some((gen, pool.restore_heap(roots, len)));
    }
    // A free slot must be empty and listed once, or two creates would
    // hand out the same slot.
    let mut claimed: Vec<bool> = heaps.iter().map(Option::is_some).collect();
    for &(s, _) in &img.free_slots {
        if std::mem::replace(claimed.get_mut(s as usize)?, true) {
            return None;
        }
    }
    // A checkpoint that decodes but is not a valid pool is refused like a
    // torn one, so recovery falls back to genesis replay.
    let refs: Vec<&PooledHeap> = heaps.iter().flatten().map(|(_, h)| h).collect();
    check_pool(&pool, &refs).ok()?;
    Some(RecoveredCheckpoint {
        seq: img.seq,
        pool,
        heaps,
        free_slots: img.free_slots,
    })
}

/// Load `dir/checkpoint.bin`. A missing or malformed checkpoint yields
/// `None`: the checkpoint is advisory, recovery then replays the WAL from
/// genesis.
fn read_checkpoint(dir: &Path, engine: Engine) -> Option<RecoveredCheckpoint> {
    decode_checkpoint(&std::fs::read(dir.join(CHECKPOINT_FILE)).ok()?, engine)
}

/// Apply one logged op to a pool + slot table. Shared by replay and the
/// live [`DurablePool`] path so the two can never diverge. Returns the
/// extracted keys (empty for non-extracting ops).
fn apply_op(
    pool: &mut HeapPool<i64>,
    slots: &mut Vec<Option<(u32, PooledHeap)>>,
    free_slots: &mut Vec<(u32, u32)>,
    seq: u64,
    op: &WalOp,
) -> Result<Vec<i64>, WalError> {
    let live = |slots: &mut Vec<Option<(u32, PooledHeap)>>, s: u32| -> Result<usize, WalError> {
        let i = s as usize;
        match slots.get(i) {
            Some(Some(_)) => Ok(i),
            _ => Err(WalError::UnknownSlot(s)),
        }
    };
    match op {
        WalOp::CreateHeap { slot, gen } => {
            let i = *slot as usize;
            if slots.len() <= i {
                slots.resize_with(i + 1, || None);
            }
            if slots[i].is_some() {
                return Err(WalError::Corrupt {
                    seq,
                    reason: format!("create_heap on occupied slot {slot}"),
                });
            }
            // Retire the free-list entry this create consumed (search from
            // the back: allocation is LIFO).
            if let Some(at) = free_slots.iter().rposition(|(s, _)| s == slot) {
                free_slots.remove(at);
            }
            slots[i] = Some((*gen, pool.new_heap()));
            Ok(Vec::new())
        }
        WalOp::Insert { slot, key } => {
            let i = live(slots, *slot)?;
            let (_, heap) = slots[i].as_mut().expect("live slot");
            pool.insert(heap, *key);
            Ok(Vec::new())
        }
        WalOp::FromKeys { slot, keys } => {
            let i = live(slots, *slot)?;
            let engine = pool.engine();
            let built = pool.try_from_keys_parallel_with(keys, engine)?;
            let (_, heap) = slots[i].as_mut().expect("live slot");
            pool.meld(heap, built);
            Ok(Vec::new())
        }
        WalOp::ExtractMin { slot } => {
            let i = live(slots, *slot)?;
            let (_, heap) = slots[i].as_mut().expect("live slot");
            Ok(pool.extract_min(heap).into_iter().collect())
        }
        WalOp::MultiExtractMin { slot, k } => {
            let i = live(slots, *slot)?;
            let (_, heap) = slots[i].as_mut().expect("live slot");
            let k = usize::try_from(*k).unwrap_or(usize::MAX).min(heap.len());
            Ok(pool.multi_extract_min(heap, k))
        }
        WalOp::Meld { dst, src } => {
            if dst == src {
                return Err(WalError::Corrupt {
                    seq,
                    reason: format!("meld of slot {dst} into itself"),
                });
            }
            let di = live(slots, *dst)?;
            let si = live(slots, *src)?;
            let (sgen, sheap) = slots[si].take().expect("live slot");
            let (_, dheap) = slots[di].as_mut().expect("live slot");
            pool.meld(dheap, sheap);
            free_slots.push((*src, sgen.wrapping_add(1)));
            Ok(Vec::new())
        }
        WalOp::FreeHeap { slot } => {
            let i = live(slots, *slot)?;
            let (gen, heap) = slots[i].take().expect("live slot");
            pool.free_heap(heap);
            free_slots.push((*slot, gen.wrapping_add(1)));
            Ok(Vec::new())
        }
    }
}

/// Everything recovery reconstructs from a durability directory. The
/// service's shard recovery and [`DurablePool::open`] both build on this.
pub struct RecoveredState {
    /// The pool, checkpoint-restored and replayed up to the valid WAL tail.
    pub pool: HeapPool<i64>,
    /// Slot table: `heaps[slot] = Some((generation, heap))` for live slots.
    pub heaps: Vec<Option<(u32, PooledHeap)>>,
    /// Recyclable `(slot, next_generation)` pairs.
    pub free_slots: Vec<(u32, u32)>,
    /// Sequence number the next append must use.
    pub next_seq: u64,
    /// WAL records replayed on top of the checkpoint.
    pub replayed: usize,
}

/// Recover a durability directory: last valid checkpoint + WAL suffix
/// replay + physical truncation of any torn tail. The result has passed
/// `check_pool`; a missing directory recovers to the empty state.
pub fn recover_dir(dir: &Path, engine: Engine) -> Result<RecoveredState, WalError> {
    std::fs::create_dir_all(dir)?;
    let (ckpt_seq, mut pool, mut heaps, mut free_slots) = match read_checkpoint(dir, engine) {
        Some(c) => (c.seq, c.pool, c.heaps, c.free_slots),
        None => (
            0,
            HeapPool::new().with_engine(engine),
            Vec::new(),
            Vec::new(),
        ),
    };
    let wal_path = dir.join(WAL_FILE);
    let log = read_wal(&wal_path)?;
    if log.valid_len < log.file_len {
        truncate_wal(&wal_path, log.valid_len)?;
    }
    let mut last_seq = ckpt_seq;
    let mut replayed = 0usize;
    for (seq, op) in &log.records {
        if *seq <= ckpt_seq {
            continue; // already folded into the checkpoint
        }
        if *seq <= last_seq {
            return Err(WalError::Corrupt {
                seq: *seq,
                reason: format!("sequence went backwards (after {last_seq})"),
            });
        }
        apply_op(&mut pool, &mut heaps, &mut free_slots, *seq, op)?;
        last_seq = *seq;
        replayed += 1;
    }
    let refs: Vec<&PooledHeap> = heaps.iter().flatten().map(|(_, h)| h).collect();
    check_pool(&pool, &refs).map_err(|reason| WalError::Corrupt {
        seq: last_seq,
        reason,
    })?;
    flight::record_here(EventKind::Recover, replayed as u64);
    Ok(RecoveredState {
        pool,
        heaps,
        free_slots,
        next_seq: last_seq + 1,
        replayed,
    })
}

impl HeapPool<i64> {
    /// Recover (or initialize) a durable pool from `path`: load the last
    /// valid checkpoint, replay the WAL suffix, truncate any torn tail,
    /// and return the pool wrapped in its logging front-end.
    pub fn recover(path: &Path) -> Result<DurablePool, WalError> {
        DurablePool::open(path, Engine::Sequential)
    }
}

/// A [`HeapPool`] whose every mutation is logged ahead of application, with
/// periodic checkpoints. Heaps are addressed by `(slot, generation)` pairs
/// (the same generational-handle scheme the service's queue table uses) so
/// handles survive a restart.
#[derive(Debug)]
pub struct DurablePool {
    dir: PathBuf,
    pool: HeapPool<i64>,
    slots: Vec<Option<(u32, PooledHeap)>>,
    free_slots: Vec<(u32, u32)>,
    writer: WalWriter,
    checkpoint_every: u64,
    ops_since_checkpoint: u64,
}

/// Default number of logged ops between automatic checkpoints.
const DEFAULT_CHECKPOINT_EVERY: u64 = 256;

impl DurablePool {
    /// Open `dir`, recovering whatever state it holds (an empty or missing
    /// directory opens as an empty pool).
    pub fn open(dir: &Path, engine: Engine) -> Result<DurablePool, WalError> {
        let state = recover_dir(dir, engine)?;
        let writer = WalWriter::append_to(&dir.join(WAL_FILE), state.next_seq)?;
        Ok(DurablePool {
            dir: dir.to_path_buf(),
            pool: state.pool,
            slots: state.heaps,
            free_slots: state.free_slots,
            writer,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            ops_since_checkpoint: 0,
        })
    }

    /// Log-then-apply: the write-ahead contract lives here. The op reaches
    /// the OS before the slab changes, so recovery can only be ahead of
    /// (never behind) acknowledged state.
    fn log_apply(&mut self, op: &WalOp) -> Result<Vec<i64>, WalError> {
        if let WalOp::FromKeys { keys, .. } = op {
            // Refuse at admission: the log must never hold an op that
            // cannot replay.
            self.pool.can_admit(keys.len())?;
        }
        let seq = self.writer.append(op)?;
        self.writer.flush()?;
        let out = apply_op(
            &mut self.pool,
            &mut self.slots,
            &mut self.free_slots,
            seq,
            op,
        )?;
        self.ops_since_checkpoint += 1;
        if self.ops_since_checkpoint >= self.checkpoint_every {
            self.checkpoint()?;
        }
        Ok(out)
    }

    fn require_live(&self, slot: u32) -> Result<(), WalError> {
        match self.slots.get(slot as usize) {
            Some(Some(_)) => Ok(()),
            _ => Err(WalError::UnknownSlot(slot)),
        }
    }

    /// Create a heap; returns its `(slot, generation)` handle.
    pub fn create_heap(&mut self) -> Result<(u32, u32), WalError> {
        let (slot, gen) = match self.free_slots.last() {
            Some(&(s, g)) => (s, g),
            None => (self.slots.len() as u32, 0),
        };
        self.log_apply(&WalOp::CreateHeap { slot, gen })?;
        Ok((slot, gen))
    }

    /// Insert one key.
    pub fn insert(&mut self, slot: u32, key: i64) -> Result<(), WalError> {
        self.require_live(slot)?;
        self.log_apply(&WalOp::Insert { slot, key })?;
        Ok(())
    }

    /// Bulk-admit keys (logged as one record, built with the pool engine).
    pub fn from_keys(&mut self, slot: u32, keys: &[i64]) -> Result<(), WalError> {
        self.require_live(slot)?;
        self.log_apply(&WalOp::FromKeys {
            slot,
            keys: keys.to_vec(),
        })?;
        Ok(())
    }

    /// Extract the minimum key.
    pub fn extract_min(&mut self, slot: u32) -> Result<Option<i64>, WalError> {
        self.require_live(slot)?;
        let out = self.log_apply(&WalOp::ExtractMin { slot })?;
        Ok(out.into_iter().next())
    }

    /// Extract the `k` smallest keys.
    pub fn multi_extract_min(&mut self, slot: u32, k: usize) -> Result<Vec<i64>, WalError> {
        self.require_live(slot)?;
        self.log_apply(&WalOp::MultiExtractMin { slot, k: k as u64 })
    }

    /// Meld the heap at `src` into the heap at `dst`; `src` dies.
    pub fn meld(&mut self, dst: u32, src: u32) -> Result<(), WalError> {
        self.require_live(dst)?;
        self.require_live(src)?;
        if dst == src {
            return Err(WalError::Corrupt {
                seq: self.writer.next_seq(),
                reason: "meld of a slot into itself".into(),
            });
        }
        self.log_apply(&WalOp::Meld { dst, src })?;
        Ok(())
    }

    /// Destroy the heap at `slot`, recycling its nodes and slot.
    pub fn free_heap(&mut self, slot: u32) -> Result<(), WalError> {
        self.require_live(slot)?;
        self.log_apply(&WalOp::FreeHeap { slot })?;
        Ok(())
    }

    /// Write a checkpoint now and reset the cadence counter. The WAL keeps
    /// its history (compaction is future work); replay skips everything the
    /// checkpoint already folded in.
    pub fn checkpoint(&mut self) -> Result<(), WalError> {
        self.writer.sync()?;
        let seq = self.writer.next_seq() - 1;
        let heaps = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|(g, h)| (i as u32, *g, h)));
        write_checkpoint(&self.dir, seq, &self.pool, heaps, &self.free_slots)?;
        self.ops_since_checkpoint = 0;
        Ok(())
    }

    /// Change the automatic checkpoint cadence (`u64::MAX` disables it).
    pub fn set_checkpoint_every(&mut self, every: u64) {
        self.checkpoint_every = every.max(1);
    }

    /// The underlying pool (read-only).
    pub fn pool(&self) -> &HeapPool<i64> {
        &self.pool
    }

    /// Number of keys in the heap at `slot`, if live.
    pub fn len(&self, slot: u32) -> Option<usize> {
        match self.slots.get(slot as usize) {
            Some(Some((_, h))) => Some(h.len()),
            _ => None,
        }
    }

    /// Whether the heap at `slot` is live but empty (`None` if not live).
    pub fn is_empty(&self, slot: u32) -> Option<bool> {
        self.len(slot).map(|l| l == 0)
    }

    /// Generation of the heap at `slot`, if live.
    pub fn generation(&self, slot: u32) -> Option<u32> {
        match self.slots.get(slot as usize) {
            Some(Some((g, _))) => Some(*g),
            _ => None,
        }
    }

    /// Live slot indices, ascending.
    pub fn live_slots(&self) -> Vec<u32> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i as u32))
            .collect()
    }

    /// Every key in the heap at `slot`, in arbitrary order (oracle checks).
    pub fn keys_unsorted(&self, slot: u32) -> Option<Vec<i64>> {
        match self.slots.get(slot as usize) {
            Some(Some((_, h))) => {
                let mut ids = Vec::with_capacity(h.len());
                self.pool.collect_node_ids(h, &mut ids);
                Some(
                    ids.into_iter()
                        .map(|id| self.pool.arena().get(id).key)
                        .collect(),
                )
            }
            _ => None,
        }
    }

    /// Bytes in the WAL — the offsets a crash harness cuts at.
    pub fn wal_bytes(&self) -> u64 {
        self.writer.bytes_logged()
    }

    /// Deep validation of every live heap via `check_pool`.
    pub fn validate(&self) -> Result<(), String> {
        let refs: Vec<&PooledHeap> = self.slots.iter().flatten().map(|(_, h)| h).collect();
        check_pool(&self.pool, &refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "meldpq-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn all_ops() -> Vec<WalOp> {
        vec![
            WalOp::CreateHeap { slot: 3, gen: 7 },
            WalOp::Insert { slot: 3, key: -42 },
            WalOp::FromKeys {
                slot: 3,
                keys: vec![i64::MIN, -1, 0, 1, i64::MAX],
            },
            WalOp::ExtractMin { slot: 3 },
            WalOp::MultiExtractMin { slot: 3, k: 999 },
            WalOp::Meld { dst: 1, src: 2 },
            WalOp::FreeHeap { slot: 3 },
        ]
    }

    #[test]
    fn record_roundtrip_all_ops() {
        let dir = tmp_dir("roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(WAL_FILE);
        let mut w = WalWriter::create(&path).unwrap();
        for op in all_ops() {
            w.append(&op).unwrap();
        }
        w.flush().unwrap();
        let read = read_wal(&path).unwrap();
        assert_eq!(read.valid_len, read.file_len);
        let got: Vec<WalOp> = read.records.iter().map(|(_, op)| op.clone()).collect();
        assert_eq!(got, all_ops());
        let seqs: Vec<u64> = read.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5, 6, 7]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_stops_the_read() {
        let dir = tmp_dir("torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(WAL_FILE);
        let mut w = WalWriter::create(&path).unwrap();
        for op in all_ops() {
            w.append(&op).unwrap();
        }
        w.flush().unwrap();
        let full = read_wal(&path).unwrap();
        // Cut 5 bytes into the last record: everything before survives.
        let cut = full.valid_len - 5;
        truncate_wal(&path, cut).unwrap();
        let read = read_wal(&path).unwrap();
        assert_eq!(read.records.len(), all_ops().len() - 1);
        assert!(read.valid_len < cut);
        // A bit flip mid-file stops the read at the flipped record.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let read = read_wal(&path).unwrap();
        assert_eq!(read.records.len(), 0);
        assert_eq!(read.valid_len, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_pool_recovers_exactly() {
        let dir = tmp_dir("recover");
        let (slot, gen) = {
            let mut dp = HeapPool::recover(&dir).unwrap();
            let (slot, gen) = dp.create_heap().unwrap();
            dp.from_keys(slot, &[5, 3, 9, 1, 7]).unwrap();
            dp.insert(slot, -2).unwrap();
            assert_eq!(dp.extract_min(slot).unwrap(), Some(-2));
            let (other, _) = dp.create_heap().unwrap();
            dp.from_keys(other, &[100, 50]).unwrap();
            dp.meld(slot, other).unwrap();
            (slot, gen)
        };
        let dp = HeapPool::recover(&dir).unwrap();
        assert_eq!(dp.generation(slot), Some(gen));
        let mut keys = dp.keys_unsorted(slot).unwrap();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 3, 5, 7, 9, 50, 100]);
        dp.validate().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_roundtrip_and_corruption_fallback() {
        let dir = tmp_dir("ckpt");
        {
            let mut dp = HeapPool::recover(&dir).unwrap();
            let (slot, _) = dp.create_heap().unwrap();
            dp.from_keys(slot, &(0..100).collect::<Vec<_>>()).unwrap();
            dp.extract_min(slot).unwrap();
            dp.checkpoint().unwrap();
            dp.insert(slot, -5).unwrap(); // lives only in the WAL suffix
        }
        {
            let dp = HeapPool::recover(&dir).unwrap();
            let mut keys = dp.keys_unsorted(0).unwrap();
            keys.sort_unstable();
            let mut want: Vec<i64> = (1..100).collect();
            want.insert(0, -5);
            assert_eq!(keys, want);
        }
        // Corrupt the checkpoint: recovery falls back to genesis replay and
        // still reaches the same state (the WAL holds full history).
        let ck = dir.join(CHECKPOINT_FILE);
        let mut bytes = std::fs::read(&ck).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&ck, &bytes).unwrap();
        let dp = HeapPool::recover(&dir).unwrap();
        let mut keys = dp.keys_unsorted(0).unwrap();
        keys.sort_unstable();
        let mut want: Vec<i64> = (1..100).collect();
        want.insert(0, -5);
        assert_eq!(keys, want);
        dp.validate().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn slot_recycling_survives_recovery() {
        let dir = tmp_dir("slots");
        {
            let mut dp = HeapPool::recover(&dir).unwrap();
            let (s0, g0) = dp.create_heap().unwrap();
            dp.insert(s0, 1).unwrap();
            dp.free_heap(s0).unwrap();
            let (s1, g1) = dp.create_heap().unwrap();
            assert_eq!(s1, s0, "slot is recycled");
            assert_eq!(g1, g0 + 1, "generation advances");
            dp.insert(s1, 2).unwrap();
        }
        let dp = HeapPool::recover(&dir).unwrap();
        assert_eq!(dp.generation(0), Some(1));
        assert_eq!(dp.keys_unsorted(0).unwrap(), vec![2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_slot_is_typed() {
        let dir = tmp_dir("unknown");
        let mut dp = HeapPool::recover(&dir).unwrap();
        assert!(matches!(dp.insert(9, 1), Err(WalError::UnknownSlot(9))));
        assert!(matches!(dp.extract_min(0), Err(WalError::UnknownSlot(0))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn double_recover_is_idempotent() {
        let dir = tmp_dir("double");
        {
            let mut dp = HeapPool::recover(&dir).unwrap();
            let (slot, _) = dp.create_heap().unwrap();
            dp.from_keys(slot, &[8, 6, 7]).unwrap();
        }
        let a = HeapPool::recover(&dir).unwrap();
        let mut ka = a.keys_unsorted(0).unwrap();
        ka.sort_unstable();
        drop(a);
        let b = HeapPool::recover(&dir).unwrap();
        let mut kb = b.keys_unsorted(0).unwrap();
        kb.sort_unstable();
        assert_eq!(ka, kb);
        b.validate().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Each live slot's `(generation, sorted keys)`.
    fn slot_keys(
        pool: &HeapPool<i64>,
        heaps: &[Option<(u32, PooledHeap)>],
    ) -> Vec<Option<(u32, Vec<i64>)>> {
        heaps
            .iter()
            .map(|s| {
                s.as_ref().map(|(gen, h)| {
                    let mut ids = Vec::new();
                    pool.collect_node_ids(h, &mut ids);
                    let mut keys: Vec<i64> =
                        ids.iter().map(|id| pool.arena().get(*id).key).collect();
                    keys.sort_unstable();
                    (*gen, keys)
                })
            })
            .collect()
    }

    #[test]
    fn checkpoint_roundtrip_is_exact() {
        let dir = tmp_dir("exact");
        let mut dp = HeapPool::recover(&dir).unwrap();
        dp.set_checkpoint_every(u64::MAX);
        let (a, _) = dp.create_heap().unwrap();
        dp.from_keys(a, &[5, -3, 0, 17, 9, 2, 8, 1]).unwrap();
        dp.multi_extract_min(a, 3).unwrap();
        dp.insert(a, i64::MIN).unwrap(); // reuses a freed slab slot
        dp.insert(a, i64::MAX).unwrap();
        let (b, _) = dp.create_heap().unwrap();
        dp.insert(b, 4).unwrap();
        let (c, _) = dp.create_heap().unwrap(); // stays live and empty
        let (e, _) = dp.create_heap().unwrap();
        dp.from_keys(e, &[11, 12, 13]).unwrap();
        dp.free_heap(b).unwrap();
        let (d, dgen) = dp.create_heap().unwrap(); // recycles b's slot
        assert_eq!((d, dgen), (b, 1));
        dp.insert(d, 6).unwrap();
        dp.free_heap(e).unwrap(); // dead slab slots; the top slot is free
        dp.checkpoint().unwrap();
        let slab = dp.pool.arena().raw_slots();
        assert!(slab.iter().any(Option::is_none), "image has dead slots");
        assert!(!dp.pool.arena().free_list().is_empty());
        assert_eq!(dp.free_slots, vec![(e, 1)]);
        assert_eq!(dp.len(c), Some(0));

        let ck = read_checkpoint(&dir, Engine::Sequential).expect("checkpoint decodes");
        assert_eq!(ck.seq, dp.writer.next_seq() - 1);
        let got = ck.pool.arena().raw_slots();
        assert_eq!(got.len(), slab.len());
        for (i, (want, got)) in slab.iter().zip(got).enumerate() {
            match (want, got) {
                (None, None) => {}
                (Some(w), Some(g)) => {
                    assert_eq!(g.key, w.key, "slot {i} key");
                    assert_eq!(g.parent, w.parent, "slot {i} parent");
                    assert_eq!(g.children, w.children, "slot {i} children");
                }
                _ => panic!("slot {i}: liveness differs"),
            }
        }
        let keys: Vec<i64> = got.iter().flatten().map(|n| n.key).collect();
        assert!(keys.contains(&i64::MIN) && keys.contains(&i64::MAX));
        assert_eq!(ck.pool.arena().free_list(), dp.pool.arena().free_list());
        assert_eq!(ck.heaps.len(), dp.slots.len());
        for (slot, (want, got)) in dp.slots.iter().zip(&ck.heaps).enumerate() {
            match (want, got) {
                (None, None) => {}
                (Some((wg, wh)), Some((gg, gh))) => {
                    assert_eq!(gg, wg, "slot {slot} gen");
                    assert_eq!(gh.len(), wh.len(), "slot {slot} len");
                    assert_eq!(gh.roots(), wh.roots(), "slot {slot} roots");
                }
                _ => panic!("slot {slot}: liveness differs"),
            }
        }
        assert_eq!(ck.free_slots, dp.free_slots);

        // The file is the word image: magic first, the FNV-1a of every
        // word before it last.
        let bytes = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
        let words: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .collect();
        assert_eq!(bytes.len(), 8 * words.len());
        assert_eq!(words[0], CHECKPOINT_MAGIC);
        let (body, trailer) = words.split_at(words.len() - 1);
        assert_eq!(trailer[0], fnv1a_words(body.iter().copied()));
        assert!(!dir.join(format!("{CHECKPOINT_FILE}.tmp")).exists());

        // A recycled top slot stays usable after the restart.
        drop(dp);
        let mut dp = HeapPool::recover(&dir).unwrap();
        assert_eq!(dp.create_heap().unwrap(), (e, 1));
        dp.validate().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Seal `words` as a checkpoint file: LE words plus the FNV-1a trailer.
    fn seal(words: &[u64]) -> Vec<u8> {
        let crc = fnv1a_words(words.iter().copied());
        words
            .iter()
            .chain([&crc])
            .flat_map(|w| w.to_le_bytes())
            .collect()
    }

    const N: u64 = NONE_WORD;

    /// A valid image: heap `[10, 20]` at slot 0 (gen 4), slot 1 free (next
    /// gen 5), slab slot 1 dead.
    #[rustfmt::skip]
    fn tiny_image() -> Vec<u64> {
        vec![
            CHECKPOINT_MAGIC, 7, 3, // header: seq 7, 3 slab slots
            1, 10, N, 2, //            0: key 10, root, child 2
            N, //                      1: dead
            0, 20, 0, //               2: key 20, parent 0
            1, 1, //                   free list [1]
            1, 0, 4, 2, 2, N, 0, //    heap at slot 0: gen 4, len 2, roots [-, 0]
            1, 1, 5, //                free slots [(1, 5)]
        ]
    }

    /// A valid image with one-node heaps at slots 0 and `second`.
    #[rustfmt::skip]
    fn two_heaps(second: u64) -> Vec<u64> {
        vec![
            CHECKPOINT_MAGIC, 7, 2,
            0, 10, N,
            0, 20, N,
            0,
            2, 0, 0, 1, 1, 0, second, 0, 1, 1, 1,
            0,
        ]
    }

    #[test]
    fn hostile_checkpoints_are_refused_without_allocating() {
        let decoded = decode_checkpoint(&seal(&tiny_image()), Engine::Sequential).expect("valid");
        assert_eq!(decoded.seq, 7);
        assert_eq!(decoded.free_slots, vec![(1, 5)]);
        assert_eq!(
            slot_keys(&decoded.pool, &decoded.heaps),
            vec![Some((4, vec![10, 20])), None]
        );
        assert!(decode_checkpoint(&seal(&two_heaps(1)), Engine::Sequential).is_some());

        let edit = |at: usize, w: u64| {
            let mut v = tiny_image();
            v[at] = w;
            seal(&v)
        };
        // Refused before the words are parsed: bad length or CRC.
        let valid = seal(&tiny_image());
        let mut torn = valid.clone();
        torn.pop();
        let mut flipped = valid.clone();
        flipped[4 * 8 + 1] ^= 0x10;
        let mut hostile: Vec<(&str, Vec<u8>)> = vec![
            ("empty file", Vec::new()),
            ("length not a multiple of 8", torn),
            ("flipped bit", flipped),
        ];
        // CRC-valid, refused by the pass that stores nothing, so no count
        // in them ever sizes an allocation.
        let far = 1u64 << 32;
        let parsed: Vec<(&str, Vec<u8>)> = vec![
            ("trailer only", seal(&[])),
            ("wrong magic", edit(0, CHECKPOINT_MAGIC ^ 1)),
            (
                "wrong version",
                edit(0, u64::from_le_bytes(*b"MPQCKPT\x02")),
            ),
            ("slot count u64::MAX", edit(2, u64::MAX)),
            ("degree past the file", edit(3, u64::MAX - 1)),
            ("free count u64::MAX", edit(11, u64::MAX)),
            ("heap count u64::MAX", edit(13, u64::MAX)),
            ("root count u64::MAX", edit(17, u64::MAX)),
            ("free-slot count u64::MAX", edit(20, u64::MAX)),
            ("child id = slot count", edit(6, 3)),
            ("child id above u32::MAX", edit(6, far + 2)),
            ("parent id = slot count", edit(10, 3)),
            ("parent id above u32::MAX", edit(10, far)),
            ("root id = slot count", edit(19, 3)),
            ("free id above u32::MAX", edit(12, far + 1)),
            ("heap slot above u32::MAX", edit(14, far)),
            ("heap slot twice", seal(&two_heaps(0))),
            ("trailing word", {
                let mut v = tiny_image();
                v.push(0);
                seal(&v)
            }),
        ];
        for (what, bytes) in &parsed {
            let body = &bytes[..bytes.len() - 8];
            assert!(
                parse_image(body, false).is_none(),
                "{what}: passed validation"
            );
        }
        hostile.extend(parsed);
        for (what, bytes) in &hostile {
            assert!(
                decode_checkpoint(bytes, Engine::Sequential).is_none(),
                "{what}: accepted"
            );
        }
        // The validation pass stores nothing even for a valid image.
        let img = parse_image(&valid[..valid.len() - 8], false).expect("valid");
        assert_eq!(
            [
                img.nodes.capacity(),
                img.free.capacity(),
                img.heaps.capacity(),
                img.free_slots.capacity()
            ],
            [0; 4]
        );
        // Images that parse but do not fit together are refused too.
        for (what, bytes) in [
            ("child names a dead slot", edit(6, 1)),
            ("free list names a live node", edit(12, 2)),
            ("free slot is live", edit(21, 0)),
            ("heap order", edit(9, 5)),
        ] {
            assert!(
                decode_checkpoint(&bytes, Engine::Sequential).is_none(),
                "{what}: accepted"
            );
        }

        // Recovery over each refused image replays the WAL from genesis.
        let dir = tmp_dir("hostile");
        {
            let mut dp = HeapPool::recover(&dir).unwrap();
            dp.set_checkpoint_every(u64::MAX);
            let (a, _) = dp.create_heap().unwrap();
            let (b, _) = dp.create_heap().unwrap();
            dp.from_keys(a, &[4, 1, 3]).unwrap();
            for k in 0..6 {
                dp.insert(b, 10 * k).unwrap();
            }
            dp.extract_min(a).unwrap();
            dp.free_heap(b).unwrap();
        }
        let oracle = recover_dir(&dir, Engine::Sequential).unwrap();
        assert_eq!(oracle.replayed, 11);
        let want = slot_keys(&oracle.pool, &oracle.heaps);
        for (what, bytes) in &hostile {
            std::fs::write(dir.join(CHECKPOINT_FILE), bytes).unwrap();
            let got = recover_dir(&dir, Engine::Sequential)
                .unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
            assert_eq!(got.replayed, 11, "{what}: not a genesis replay");
            assert_eq!(slot_keys(&got.pool, &got.heaps), want, "{what}");
            assert_eq!(got.free_slots, oracle.free_slots, "{what}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_json_checkpoint_is_ignored() {
        let dir = tmp_dir("legacy");
        {
            let mut dp = HeapPool::recover(&dir).unwrap();
            dp.set_checkpoint_every(u64::MAX);
            let (a, _) = dp.create_heap().unwrap();
            dp.from_keys(a, &[3, 1, 2]).unwrap();
            dp.insert(a, 7).unwrap();
            dp.insert(a, -4).unwrap();
            dp.extract_min(a).unwrap();
            dp.insert(a, 5).unwrap();
        }
        // A checkpoint as the earlier JSON format wrote it, for an empty
        // pool at seq 6: were it read, replay would skip every record and
        // recover nothing.
        let legacy = dir.join("checkpoint.json");
        let text = "17916176206309384464\n\
                    {\"seq\":6,\"nodes\":[],\"free\":[],\"heaps\":[],\"free_slots\":[]}";
        std::fs::write(&legacy, text).unwrap();
        assert!(!dir.join(CHECKPOINT_FILE).exists());
        let state = recover_dir(&dir, Engine::Sequential).unwrap();
        assert_eq!(state.replayed, 6);
        assert_eq!(
            slot_keys(&state.pool, &state.heaps),
            vec![Some((0, vec![1, 2, 3, 5, 7]))]
        );
        assert_eq!(std::fs::read_to_string(&legacy).unwrap(), text);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
