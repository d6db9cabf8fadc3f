//! Interned identifiers.
//!
//! The lexer interns each distinct identifier once; tokens, the AST and
//! lowering then carry a [`Sym`], a dense index, so name resolution is an
//! array lookup rather than a string hash.

use std::sync::Arc;

use pta_ir::hash::FxHashMap;

/// An interned identifier: a dense index into its [`Symbols`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// The symbol's index, for symbol-indexed tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Every distinct identifier of one source, numbered in order of first
/// appearance.
#[derive(Debug, Clone, Default)]
pub struct Symbols {
    names: Vec<Arc<str>>,
    ids: FxHashMap<Arc<str>, Sym>,
}

impl Symbols {
    /// The symbol for `name`, adding it on first sight.
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(&sym) = self.ids.get(name) {
            return sym;
        }
        let sym = Sym(u32::try_from(self.names.len()).expect("fewer than 2^32 identifiers"));
        let name: Arc<str> = name.into();
        self.names.push(Arc::clone(&name));
        self.ids.insert(name, sym);
        sym
    }

    /// The symbol for `name`, if the source contains it.
    pub fn get(&self, name: &str) -> Option<Sym> {
        self.ids.get(name).copied()
    }

    /// The identifier `sym` stands for.
    pub fn name(&self, sym: Sym) -> &str {
        &self.names[sym.index()]
    }

    /// Number of distinct identifiers.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if the source has no identifiers.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}
