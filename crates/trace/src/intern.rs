//! Shared span strings and the interner that hands them out.
//!
//! Span and kernel names repeat massively — a 100k-span run of a 50-layer
//! model carries a few dozen *distinct* strings — and so do tag keys (a
//! fixed vocabulary) and string tag values. A span therefore holds each of
//! its strings as a [`Name`]: an immutable string that is either a
//! `&'static str` (a literal; free to make) or a shared `Arc<str>` (a
//! refcount bump to clone). Every comparison, hash, ordering, display and
//! serialization of a `Name` goes by its text, never by which variant or
//! which allocation holds it, so sharing is invisible in every output.
//!
//! A reader that meets many strings only once copies them into an arena
//! instead: a few shared blocks of text, each cut into `Name`s, so a
//! stream of distinct names costs one allocation per block, not one per
//! string.
//!
//! A [`NameTable`] is the interner: it stores each distinct string once,
//! as a `Name`, and numbers it with a dense `u32` [`Symbol`]. Emitters hold
//! one per run, so a kernel name or launch shape that repeats is one
//! allocation per run and a refcount bump per span; the columnar
//! [`crate::store::SpanStore`] holds one per store and keeps symbols in its
//! columns. Readers share the same way: the span-JSON-lines reader keeps
//! the stream's strings in a set, and the `.xspb` reader makes one `Name`
//! per name record for every span that references it.
//!
//! Symbols are assigned in **first-appearance order**. Given a
//! deterministic span order — which the engine's byte-identity contract
//! (serial drain == parallel drain) already guarantees — the table contents
//! and every symbol id are deterministic too, and the `.xspb` binary
//! interchange (which serializes the table as inline name-definition
//! records) inherits byte-for-byte reproducibility. The interner
//! determinism test extends the Serial-vs-`Fixed(4)` contract to this
//! table.

use crate::fxhash::FxHashMap;
use serde::{Deserialize, DeserializeError, Serialize, Value};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::ManuallyDrop;
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::Arc;

/// An immutable, cheaply cloned string: a span name, tag key or string tag
/// value.
///
/// Equality, hashing, ordering, `Display` and serde all go by the text, so
/// names holding the same text are indistinguishable, whatever their
/// variants, to everything but a pointer comparison.
///
/// ```
/// use xsp_trace::Name;
/// let literal = Name::from("conv2d");
/// let shared = Name::new("conv2d");
/// assert_eq!(literal, shared);
/// assert_eq!(&*shared, "conv2d");
/// let copy = shared.clone(); // a refcount bump, no allocation
/// assert_eq!(copy, "conv2d");
/// ```
#[derive(Clone)]
pub enum Name {
    /// A string that lives for the whole program (a literal); costs
    /// nothing to make or clone.
    Static(&'static str),
    /// A shared heap string; clones bump its refcount.
    Shared(Arc<str>),
    /// A run of text in a block a reader's arena shares among the names
    /// it read; clones bump the block's refcount.
    Arena(ArenaText),
}

impl Name {
    /// Copies `text` into a new shared allocation. Prefer
    /// [`NameTable::share`] for text that repeats, and `Name::from` for a
    /// literal.
    pub fn new(text: &str) -> Self {
        Name::Shared(Arc::from(text))
    }

    /// The text.
    #[inline]
    pub fn as_str(&self) -> &str {
        match self {
            Name::Static(s) => s,
            Name::Shared(s) => s,
            Name::Arena(t) => t.as_str(),
        }
    }

    /// This name, owned by no arena block: a table that outlives the reader
    /// that made an arena name keeps a copy of its text, so it does not pin
    /// the rest of the block.
    fn detached(&self) -> Name {
        match self {
            Name::Arena(t) => Name::new(t.as_str()),
            other => other.clone(),
        }
    }
}

/// One fixed-capacity block of a `NameArena`. Bytes below the arena's
/// fill mark are initialized and never written again; only the arena that
/// made the block writes, and only above that mark.
struct Block {
    ptr: NonNull<u8>,
    cap: usize,
}

// SAFETY: a `Block` is a plain heap buffer. Its only writer is the one
// `NameArena` that made it, which writes through the raw pointer to bytes no
// `ArenaText` covers yet; every `ArenaText` reads only bytes written before it
// was made, which are never written again. So no byte is ever read and written
// concurrently, and a `Name` that reaches another thread is published through
// whatever synchronization moved it there.
unsafe impl Send for Block {}
// SAFETY: as for `Send`.
unsafe impl Sync for Block {}

impl Block {
    fn new(cap: usize) -> Self {
        let mut buf = ManuallyDrop::new(Vec::<u8>::with_capacity(cap));
        Block {
            ptr: NonNull::new(buf.as_mut_ptr()).expect("Vec pointers are non-null"),
            cap: buf.capacity(),
        }
    }
}

impl Drop for Block {
    fn drop(&mut self) {
        // SAFETY: `ptr` and `cap` come from the `Vec` leaked in `Block::new`;
        // length 0 drops no elements (`u8` has no drop glue anyway).
        unsafe { drop(Vec::from_raw_parts(self.ptr.as_ptr(), 0, self.cap)) }
    }
}

/// The text of a [`Name::Arena`]: a run of bytes in an arena block. Its
/// fields are private, so only `NameArena::alloc` makes one, and only over
/// text it has copied in.
#[derive(Clone)]
pub struct ArenaText {
    block: Arc<Block>,
    start: u32,
    len: u32,
}

impl ArenaText {
    fn as_str(&self) -> &str {
        // SAFETY: `NameArena::alloc` made this run by copying a `&str` into
        // `start..start + len`, inside the block's capacity, and no one writes
        // those bytes again; the `Arc` keeps the block alive while `self` is.
        unsafe {
            let bytes = std::slice::from_raw_parts(
                self.block.ptr.as_ptr().add(self.start as usize),
                self.len as usize,
            );
            std::str::from_utf8_unchecked(bytes)
        }
    }
}

/// A bump allocator for [`Name`]s: copies each string into the current
/// block and hands out `Name`s that share it. Blocks start small and double
/// up to `MAX_BLOCK`, so a short stream keeps little slack; a
/// string longer than an eighth of that gets an allocation of its own.
///
/// A block lives as long as any `Name` cut from it, so an arena suits text
/// whose `Name`s die together, like the spans of one stream.
#[derive(Default)]
pub(crate) struct NameArena {
    block: Option<Arc<Block>>,
    used: usize,
}

impl NameArena {
    /// Capacity of the first block, bytes.
    const MIN_BLOCK: usize = 8 << 10;
    /// Capacity blocks grow to, bytes.
    const MAX_BLOCK: usize = 64 << 10;

    /// Creates an arena; the first block is allocated on first use.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Copies `text` into the arena and returns it as a [`Name`].
    pub(crate) fn alloc(&mut self, text: &str) -> Name {
        if text.len() > Self::MAX_BLOCK / 8 {
            return Name::new(text);
        }
        if !self
            .block
            .as_ref()
            .is_some_and(|b| b.cap - self.used >= text.len())
        {
            let cap = self
                .block
                .as_ref()
                .map_or(Self::MIN_BLOCK, |b| (b.cap * 2).min(Self::MAX_BLOCK));
            self.block = Some(Arc::new(Block::new(cap)));
            self.used = 0;
        }
        let block = self
            .block
            .as_ref()
            .expect("a block with room was just ensured");
        // SAFETY: `used + len <= cap`, and no `ArenaText` covers bytes at or
        // above `used`, so this writes only to allocated bytes nobody reads.
        unsafe {
            std::ptr::copy_nonoverlapping(
                text.as_ptr(),
                block.ptr.as_ptr().add(self.used),
                text.len(),
            );
        }
        let name = Name::Arena(ArenaText {
            block: Arc::clone(block),
            start: self.used as u32,
            len: text.len() as u32,
        });
        self.used += text.len();
        name
    }
}

impl fmt::Debug for NameArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NameArena")
            .field("block", &self.block.as_ref().map(|b| b.cap))
            .field("used", &self.used)
            .finish()
    }
}

impl Default for Name {
    fn default() -> Self {
        Name::Static("")
    }
}

impl Deref for Name {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

/// Lets a `Name`-keyed map be queried with a `&str`; sound because `Name`
/// hashes and compares exactly as its text does.
impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&'static str> for Name {
    fn from(text: &'static str) -> Self {
        Name::Static(text)
    }
}

impl From<String> for Name {
    fn from(text: String) -> Self {
        Name::Shared(Arc::from(text))
    }
}

impl PartialEq for Name {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Name> for String {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Name {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Name {
    fn to_value(&self) -> Value {
        self.as_str().to_value()
    }
}

impl Deserialize for Name {
    fn from_value(value: &Value) -> Result<Self, DeserializeError> {
        String::from_value(value).map(Name::from)
    }
}

/// A handle to an interned string in a [`NameTable`].
///
/// Symbols are only meaningful relative to the table that produced them;
/// the `.xspb` reader re-interns on ingest precisely so symbols from a
/// foreign capture never leak into a local table unchecked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The symbol's raw table index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only string interner: first-appearance order assigns dense
/// `u32` ids starting at 0, and each distinct string is stored once, as a
/// [`Name`] that every lookup hands out clones of.
///
/// ```
/// use xsp_trace::intern::NameTable;
/// let mut t = NameTable::new();
/// let a = t.intern("conv2d");
/// let b = t.intern("relu");
/// assert_eq!(t.intern("conv2d"), a, "re-interning is idempotent");
/// assert_eq!(t.resolve(b), "relu");
/// assert_eq!(t.share("relu"), "relu", "a hit hands out the stored Name");
/// assert_eq!(t.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    names: Vec<Name>,
    index: FxHashMap<Name, u32>,
    /// Formatting buffer of [`NameTable::share_fmt`].
    scratch: String,
}

impl NameTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its symbol; a hit costs one hash lookup
    /// and no allocation, a miss copies the text once.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&id) = self.index.get(name) {
            return Symbol(id);
        }
        self.push_new(Name::new(name))
    }

    /// Interns a [`Name`] the caller already holds; a miss stores a clone
    /// of that `Name`, with no copy of its text (an arena name is copied
    /// out of its block, which the table would otherwise keep alive).
    pub fn intern_name(&mut self, name: &Name) -> Symbol {
        if let Some(&id) = self.index.get(name.as_str()) {
            return Symbol(id);
        }
        self.push_new(name.detached())
    }

    /// Interns `text` and returns the stored [`Name`]: the one allocation
    /// per distinct string a reader makes, and a refcount bump on a hit.
    pub fn share(&mut self, text: &str) -> Name {
        let sym = self.intern(text);
        self.names[sym.index()].clone()
    }

    /// Interns the text `args` format to and returns the stored [`Name`];
    /// the text is formatted into a buffer the table reuses, so a hit
    /// allocates nothing.
    ///
    /// ```
    /// use xsp_trace::intern::NameTable;
    /// let mut t = NameTable::new();
    /// let grid = t.share_fmt(format_args!("[{},{},{}]", 8, 1, 1));
    /// assert_eq!(grid, "[8,1,1]");
    /// assert_eq!(t.share_fmt(format_args!("[{},{},{}]", 8, 1, 1)), grid);
    /// assert_eq!(t.len(), 1);
    /// ```
    pub fn share_fmt(&mut self, args: fmt::Arguments<'_>) -> Name {
        let mut text = std::mem::take(&mut self.scratch);
        text.clear();
        fmt::Write::write_fmt(&mut text, args).expect("formatting into a String cannot fail");
        let name = self.share(&text);
        self.scratch = text;
        name
    }

    fn push_new(&mut self, name: Name) -> Symbol {
        let id = u32::try_from(self.names.len()).expect("name table exceeds u32 symbols");
        self.index.insert(name.clone(), id);
        self.names.push(name);
        Symbol(id)
    }

    /// Looks up a string without interning it.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        self.index.get(name).map(|&id| Symbol(id))
    }

    /// Resolves a symbol to its string. Panics on a symbol from another
    /// table (out of range); use [`NameTable::try_resolve`] for untrusted
    /// input.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// Resolves a symbol, returning `None` when it is out of range.
    pub fn try_resolve(&self, sym: Symbol) -> Option<&str> {
        self.names.get(sym.index()).map(Name::as_str)
    }

    /// The stored [`Name`] of a symbol, to clone into a span. Panics on a
    /// symbol from another table, like [`NameTable::resolve`].
    pub fn name(&self, sym: Symbol) -> &Name {
        &self.names[sym.index()]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates the interned strings in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(Name::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_appearance_order_is_dense_from_zero() {
        let mut t = NameTable::new();
        assert_eq!(t.intern("a"), Symbol(0));
        assert_eq!(t.intern("b"), Symbol(1));
        assert_eq!(t.intern("a"), Symbol(0));
        assert_eq!(t.intern("c"), Symbol(2));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec!["a", "b", "c"]);
    }

    #[test]
    fn owned_interning_matches_borrowed() {
        let mut t = NameTable::new();
        let a = t.intern("conv");
        assert_eq!(t.intern_name(&Name::from("conv".to_owned())), a);
        let gemm = Name::from("gemm".to_owned());
        assert_eq!(t.intern_name(&gemm), Symbol(1));
        assert_eq!(t.len(), 2);
        let (Name::Shared(stored), Name::Shared(given)) = (t.name(Symbol(1)), &gemm) else {
            panic!("an owned miss stores the given shared Name");
        };
        assert!(
            Arc::ptr_eq(stored, given),
            "a miss keeps the caller's allocation"
        );
    }

    #[test]
    fn share_hands_out_one_allocation_per_distinct_string() {
        let mut t = NameTable::new();
        let (Name::Shared(a), Name::Shared(b)) = (t.share("relu"), t.share("relu")) else {
            panic!("shared names are heap strings");
        };
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn arena_names_keep_their_text_across_blocks() {
        let mut arena = NameArena::new();
        let texts: Vec<String> = (0..5_000).map(|i| format!("conv2d_{i}/Conv2D")).collect();
        let names: Vec<Name> = texts.iter().map(|t| arena.alloc(t)).collect();
        assert!(names.iter().zip(&texts).all(|(n, t)| n == t));
        // A string too long to share a block gets its own allocation.
        let long = "x".repeat(NameArena::MAX_BLOCK);
        assert!(matches!(arena.alloc(&long), Name::Shared(_)));
        assert_eq!(arena.alloc(""), "");
        // Names outlive the arena, and the blocks move between threads.
        drop(arena);
        let names = std::thread::spawn(move || names).join().unwrap();
        assert!(names.iter().zip(&texts).all(|(n, t)| n == t));
    }

    #[test]
    fn a_table_copies_arena_text_out_of_its_block() {
        let mut arena = NameArena::new();
        let mut t = NameTable::new();
        let sym = t.intern_name(&arena.alloc("relu"));
        assert!(matches!(t.name(sym), Name::Shared(_)));
        assert_eq!(t.resolve(sym), "relu");
    }

    fn hash_of(name: &Name) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        name.hash(&mut h);
        h.finish()
    }

    #[test]
    fn static_and_shared_names_are_indistinguishable_by_content() {
        let stat = Name::Static("volta_sgemm");
        let shared = Name::Shared(Arc::from("volta_sgemm"));
        let mut arena = NameArena::new();
        arena.alloc("volta_");
        let cut = arena.alloc("volta_sgemm");
        assert!(matches!(cut, Name::Arena(_)));
        for other in [&shared, &cut] {
            assert_eq!(&stat, other);
            assert_eq!(hash_of(&stat), hash_of(other));
            assert_eq!(stat.cmp(other), Ordering::Equal);
            assert_eq!(stat.to_string(), other.to_string());
            assert_eq!(
                serde_json::to_string(&stat).unwrap(),
                serde_json::to_string(other).unwrap()
            );
        }
        assert_eq!(stat, shared);
        assert_eq!(hash_of(&stat), hash_of(&shared));
        assert_eq!(stat.cmp(&shared), Ordering::Equal);
        assert_eq!(stat.to_string(), shared.to_string());
        assert_eq!(format!("{stat:?}"), format!("{shared:?}"));
        assert_eq!(
            serde_json::to_string(&stat).unwrap(),
            serde_json::to_string(&shared).unwrap()
        );
        assert_eq!(serde_json::to_string(&shared).unwrap(), "\"volta_sgemm\"");
        // Ordering and hashing are the text's, whatever the variants.
        let a = Name::Shared(Arc::from("a"));
        assert!(a < Name::Static("b") && Name::Static("a") < Name::Shared(Arc::from("b")));
        let mut h = std::collections::hash_map::DefaultHasher::new();
        "volta_sgemm".hash(&mut h);
        assert_eq!(hash_of(&shared), h.finish(), "Borrow<str> needs str's hash");
        let back: Name = serde_json::from_str("\"volta_sgemm\"").unwrap();
        assert_eq!(back, stat);
    }

    #[test]
    fn get_does_not_intern() {
        let mut t = NameTable::new();
        assert_eq!(t.get("x"), None);
        assert!(t.is_empty());
        let x = t.intern("x");
        assert_eq!(t.get("x"), Some(x));
    }

    #[test]
    fn try_resolve_rejects_foreign_symbols() {
        let mut t = NameTable::new();
        t.intern("only");
        assert_eq!(t.try_resolve(Symbol(0)), Some("only"));
        assert_eq!(t.try_resolve(Symbol(1)), None);
    }

    #[test]
    fn same_insertion_order_means_same_symbols() {
        // The determinism contract the `.xspb` byte-identity test relies on:
        // identical intern sequences yield identical tables.
        let names = ["predict", "conv", "relu", "conv", "predict", "gemm"];
        let mut a = NameTable::new();
        let mut b = NameTable::new();
        let syms_a: Vec<Symbol> = names.iter().map(|n| a.intern(n)).collect();
        let syms_b: Vec<Symbol> = names.iter().map(|n| b.intern(n)).collect();
        assert_eq!(syms_a, syms_b);
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
    }
}
