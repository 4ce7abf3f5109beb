//! Symbol tables: variables and procedures.
//!
//! All variables are global, per the paper's interprocedural model
//! ("we assume no parameter passing, values are passed by global
//! variables only", §3.2.1).

use std::fmt;

/// Identifier of a variable in the global [`SymbolTable`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub u32);

/// Identifier of a procedure in a [`crate::ast::Program`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcId(pub u32);

impl VarId {
    /// Index into the symbol table's variable list.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a `VarId` from its symbol-table index (the inverse
    /// of [`VarId::index`], for executors that key per-variable state
    /// by dense index).
    pub fn from_index(i: usize) -> VarId {
        VarId(i as u32)
    }
}

impl ProcId {
    /// Index into a program's procedure list.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The scalar element type of a variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ScalarType {
    /// 64-bit signed integer (`integer`).
    Int,
    /// 64-bit float (`real`).
    Real,
}

impl ScalarType {
    /// Fortran implicit typing: identifiers starting with `i`..`n` are
    /// integers, everything else is real.
    pub fn implicit_for(name: &str) -> ScalarType {
        match name.chars().next() {
            Some(c) if ('i'..='n').contains(&c.to_ascii_lowercase()) => ScalarType::Int,
            _ => ScalarType::Real,
        }
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarType::Int => write!(f, "integer"),
            ScalarType::Real => write!(f, "real"),
        }
    }
}

/// Declaration record for one (global) variable.
#[derive(Clone, Debug)]
pub struct VarInfo {
    /// Source-level name, lower-cased.
    pub name: String,
    /// Element type.
    pub ty: ScalarType,
    /// Dimension extents; empty for scalars. Each dimension ranges
    /// `1..=extent` (Fortran convention). Fixed at parse time: every
    /// extent is a positive integer literal, and the array's bytes fit
    /// an allocation.
    pub dims: Vec<usize>,
}

impl VarInfo {
    /// Whether this variable is an array.
    pub fn is_array(&self) -> bool {
        !self.dims.is_empty()
    }

    /// Number of dimensions (0 for scalars).
    pub fn rank(&self) -> usize {
        self.dims.len()
    }
}

/// The single global symbol table of a program.
#[derive(Clone, Debug, Default)]
pub struct SymbolTable {
    vars: Vec<VarInfo>,
}

impl SymbolTable {
    /// Creates an empty symbol table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// An empty table with room for `n` variables.
    pub(crate) fn with_capacity(n: usize) -> Self {
        SymbolTable {
            vars: Vec::with_capacity(n),
        }
    }

    /// Looks a variable up by (case-insensitive) name.
    pub fn lookup(&self, name: &str) -> Option<VarId> {
        // Names are stored lower-cased, so folding only `name` suffices.
        self.vars
            .iter()
            .position(|v| v.name.eq_ignore_ascii_case(name))
            .map(|i| VarId(i as u32))
    }

    /// Declares a new variable; returns an error message if the name is
    /// already declared with a conflicting shape or type.
    pub fn declare(
        &mut self,
        name: &str,
        ty: ScalarType,
        dims: Vec<usize>,
    ) -> Result<VarId, String> {
        self.declare_found(self.lookup(name), name, ty, dims)
    }

    /// [`declare`](Self::declare) with the lookup done: `found` is
    /// `self.lookup(name)`.
    pub(crate) fn declare_found(
        &mut self,
        found: Option<VarId>,
        name: &str,
        ty: ScalarType,
        dims: Vec<usize>,
    ) -> Result<VarId, String> {
        if let Some(id) = found {
            let existing = &self.vars[id.index()];
            if existing.ty != ty || existing.dims.len() != dims.len() {
                return Err(format!("conflicting redeclaration of `{}`", existing.name));
            }
            return Ok(id);
        }
        Ok(self.push(name, ty, dims))
    }

    /// Returns an existing variable or declares a scalar with implicit
    /// typing.
    pub fn intern_scalar(&mut self, name: &str) -> VarId {
        self.lookup(name)
            .unwrap_or_else(|| self.push(name, ScalarType::implicit_for(name), Vec::new()))
    }

    /// Declares `name`, which is not declared yet.
    pub(crate) fn push(&mut self, name: &str, ty: ScalarType, dims: Vec<usize>) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo {
            name: name.to_ascii_lowercase(),
            ty,
            dims,
        });
        id
    }

    /// Variable record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this table.
    pub fn var(&self, id: VarId) -> &VarInfo {
        &self.vars[id.index()]
    }

    /// Variable name for `id`.
    pub fn name(&self, id: VarId) -> &str {
        &self.vars[id.index()].name
    }

    /// Number of declared variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Iterates over `(VarId, &VarInfo)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &VarInfo)> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, v)| (VarId(i as u32), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implicit_typing_follows_fortran() {
        assert_eq!(ScalarType::implicit_for("i"), ScalarType::Int);
        assert_eq!(ScalarType::implicit_for("n"), ScalarType::Int);
        assert_eq!(ScalarType::implicit_for("kount"), ScalarType::Int);
        assert_eq!(ScalarType::implicit_for("x"), ScalarType::Real);
        assert_eq!(ScalarType::implicit_for("alpha"), ScalarType::Real);
        assert_eq!(ScalarType::implicit_for("I"), ScalarType::Int);
    }

    #[test]
    fn declare_and_lookup_are_case_insensitive() {
        let mut t = SymbolTable::new();
        let a = t.declare("Foo", ScalarType::Real, Vec::new()).unwrap();
        assert_eq!(t.lookup("foo"), Some(a));
        assert_eq!(t.lookup("FOO"), Some(a));
        assert_eq!(t.name(a), "foo");
    }

    #[test]
    fn redeclaration_with_same_shape_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.declare("x", ScalarType::Real, Vec::new()).unwrap();
        let b = t.declare("x", ScalarType::Real, Vec::new()).unwrap();
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn conflicting_redeclaration_is_rejected() {
        let mut t = SymbolTable::new();
        t.declare("x", ScalarType::Real, Vec::new()).unwrap();
        assert!(t.declare("x", ScalarType::Int, Vec::new()).is_err());
    }

    #[test]
    fn intern_scalar_uses_implicit_type() {
        let mut t = SymbolTable::new();
        let i = t.intern_scalar("idx");
        assert_eq!(t.var(i).ty, ScalarType::Int);
        let x = t.intern_scalar("xval");
        assert_eq!(t.var(x).ty, ScalarType::Real);
    }
}
