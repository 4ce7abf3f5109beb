//! Array privatization extended for irregular accesses (§5.1.4).
//!
//! The Polaris criterion: an array can be privatized for a loop if its
//! per-iteration *upward-exposed read set* is empty — within any one
//! iteration, every element read was written earlier in the same
//! iteration. The paper's §5.1.4 extensions, all implemented here:
//!
//! - **consecutively-written** arrays (§2.2) contribute the MUST write
//!   section `[p_entry+1 : p_exit]` even though `p` has no closed form
//!   (the Fig. 1(a) motivating example);
//! - **array stacks** (§2.3) are privatizable outright when the stack
//!   pointer resets each iteration (Fig. 1(b), TREE);
//! - **indirect reads** `x(pos(k))` are covered by querying a
//!   closed-form bound of `pos` against the already-written section
//!   (Fig. 1(c), BDNA, P3M).
//!
//! The scan walks one iteration of the loop body in program order,
//! carrying a MUST-written section `W` and a symbolic valuation of
//! scalars in a private *value space*: the value of scalar `v` at the
//! iteration entry is the symbol `entry(v)`, values computed during the
//! scan are expressions over entry symbols, and unknowable values get
//! fresh opaque symbols. This is what connects `p = 0; while ...
//! p = p + 1 ...; do j = 1, p` — the write section `[1 : phi]` and the
//! read bound `phi` meet in the same symbol.

use irr_core::property::ArrayPropertyAnalysis;
use irr_core::{
    consecutively_written, stack_access, AnalysisCtx, BodyTable, Property, PropertyQuery,
};
use irr_frontend::visit::stmt_array_accesses;
use irr_frontend::{Expr, FxHashMap, LValue, StmtId, StmtKind, VarId};
use irr_symbolic::{expr_to_sym, AggMode, Atom, Bound, RangeEnv, Section, SymExpr};

/// How privatizability was established.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PrivatizeEvidence {
    /// Plain writes-cover-reads with regular sections.
    Regular,
    /// The consecutively-written analysis supplied the write section.
    ConsecutivelyWritten,
    /// The array is a per-iteration stack.
    Stack,
    /// A closed-form bound query covered the indirect reads.
    IndirectBounded,
}

impl PrivatizeEvidence {
    /// Table 3-style tag.
    pub fn tag(self) -> &'static str {
        match self {
            PrivatizeEvidence::Regular => "REG",
            PrivatizeEvidence::ConsecutivelyWritten => "CW",
            PrivatizeEvidence::Stack => "STACK",
            PrivatizeEvidence::IndirectBounded => "CFB",
        }
    }
}

/// Result for one array in one loop.
#[derive(Clone, Debug)]
pub struct PrivatizationResult {
    /// The array.
    pub array: VarId,
    /// Whether each iteration's reads are covered by its earlier writes.
    pub privatizable: bool,
    /// What made it work.
    pub evidence: Option<PrivatizeEvidence>,
    /// `(index array, property tag)` pairs verified on the way.
    pub properties_used: Vec<(VarId, &'static str)>,
}

/// Base for iteration-entry value symbols.
const ENTRY_BASE: u32 = u32::MAX / 4;
/// Base for fresh opaque value symbols minted during the scan.
const FRESH_BASE: u32 = u32::MAX / 2;

fn entry_sym(v: VarId) -> SymExpr {
    SymExpr::var(VarId(ENTRY_BASE + v.0))
}

fn is_value_space_var(v: VarId) -> bool {
    v.0 >= ENTRY_BASE
}

/// The privatization analyzer.
pub struct Privatizer<'a, 'c, 'p> {
    ctx: &'c AnalysisCtx<'p>,
    apa: &'a mut ArrayPropertyAnalysis<'c, 'p>,
    /// When false, the §2/§3 extensions are disabled (the "without IAA"
    /// configuration).
    pub enable_iaa: bool,
    fresh_counter: u32,
    /// The loop being privatized for.
    target: StmtId,
}

#[derive(Clone)]
struct Scan {
    /// MUST-written section so far in this iteration (value space).
    w: Section,
    /// Scalar valuation: program var -> value-space expression. Absent
    /// means "still the entry value".
    vals: FxHashMap<VarId, SymExpr>,
    /// Reverse map: fresh symbol -> the program variable whose current
    /// value it names (used to express query bounds in program terms).
    fresh_names: FxHashMap<VarId, VarId>,
    used_cw: bool,
    used_indirect: bool,
    properties: Vec<(VarId, &'static str)>,
}

impl Scan {
    fn new() -> Scan {
        Scan {
            w: Section::Empty,
            vals: FxHashMap::default(),
            fresh_names: FxHashMap::default(),
            used_cw: false,
            used_indirect: false,
            properties: Vec::new(),
        }
    }
}

impl<'a, 'c, 'p> Privatizer<'a, 'c, 'p> {
    /// Creates a privatizer.
    pub fn new(
        ctx: &'c AnalysisCtx<'p>,
        apa: &'a mut ArrayPropertyAnalysis<'c, 'p>,
    ) -> Privatizer<'a, 'c, 'p> {
        Privatizer {
            ctx,
            apa,
            enable_iaa: true,
            fresh_counter: 0,
            target: StmtId(0),
        }
    }

    fn fresh(&mut self) -> SymExpr {
        self.fresh_counter += 1;
        SymExpr::var(VarId(FRESH_BASE + self.fresh_counter))
    }

    /// Gives `v` a fresh unknown value and records that the fresh symbol
    /// names `v`'s current value.
    fn freshen(&mut self, scan: &mut Scan, v: VarId) -> SymExpr {
        let f = self.fresh();
        if let Some(fv) = f.as_var() {
            scan.fresh_names.insert(fv, v);
        }
        scan.vals.insert(v, f.clone());
        f
    }

    /// Analyzes every array written in the loop.
    pub fn analyze_loop(&mut self, loop_stmt: StmtId) -> Vec<PrivatizationResult> {
        let ctx = self.ctx;
        ctx.loop_table(loop_stmt)
            .written_arrays
            .iter()
            .map(|&a| self.analyze_array(loop_stmt, a))
            .collect()
    }

    /// Analyzes one array for privatization in `loop_stmt`.
    pub fn analyze_array(&mut self, loop_stmt: StmtId, array: VarId) -> PrivatizationResult {
        self.target = loop_stmt;
        let mut result = PrivatizationResult {
            array,
            privatizable: false,
            evidence: None,
            properties_used: Vec::new(),
        };
        if !self.ctx.program.stmt(loop_stmt).kind.is_loop() {
            return result;
        }
        // Stack shortcut (§2.3).
        if self.enable_iaa {
            for si in irr_core::single_indexed_arrays(self.ctx, loop_stmt) {
                if si.array == array {
                    if let Some(st) = stack_access(self.ctx, loop_stmt, array, si.index) {
                        if st.resets_each_iteration {
                            result.privatizable = true;
                            result.evidence = Some(PrivatizeEvidence::Stack);
                            return result;
                        }
                    }
                }
            }
        }
        let mut scan = Scan::new();
        let env = self.ctx.range_env_at(loop_stmt);
        let ok = self.scan_body(self.ctx.loop_body(loop_stmt), array, &mut scan, env);
        result.properties_used = scan.properties.clone();
        if ok {
            result.privatizable = true;
            result.evidence = Some(if scan.used_cw {
                PrivatizeEvidence::ConsecutivelyWritten
            } else if scan.used_indirect {
                PrivatizeEvidence::IndirectBounded
            } else {
                PrivatizeEvidence::Regular
            });
        }
        result
    }

    /// The CW index variable when `array` is consecutively written in
    /// the loop `s`.
    fn cw_index_of(&self, s: StmtId, array: VarId) -> Option<VarId> {
        for si in irr_core::single_indexed_arrays(self.ctx, s) {
            if si.array == array && consecutively_written(self.ctx, s, array, si.index).is_some() {
                return Some(si.index);
            }
        }
        None
    }

    // ----- value space -----------------------------------------------------

    /// Converts a program expression to the scan's value space.
    fn to_value(&self, e: &Expr, scan: &Scan) -> Option<SymExpr> {
        let sym = expr_to_sym(e)?;
        Some(self.sym_to_value(&sym, scan))
    }

    /// Converts a symbolic program expression to value space.
    fn sym_to_value(&self, sym: &SymExpr, scan: &Scan) -> SymExpr {
        let mut out = sym.clone();
        // Collect the program vars mentioned (< ENTRY_BASE).
        let mut vars: Vec<VarId> = Vec::new();
        collect_program_vars(&out, &mut vars);
        for v in vars {
            let replacement = scan.vals.get(&v).cloned().unwrap_or_else(|| entry_sym(v));
            out = out.subst(v, &replacement);
        }
        out
    }

    /// Converts a value-space expression back to a program expression,
    /// valid at a point where none of its entry symbols' variables have
    /// been reassigned. `None` when fresh symbols or reassigned entries
    /// appear.
    fn value_to_program(&self, sym: &SymExpr, scan: &Scan) -> Option<SymExpr> {
        let mut out = sym.clone();
        let mut vars: Vec<VarId> = Vec::new();
        collect_all_vars(&out, &mut vars);
        for w in vars {
            if w.0 >= FRESH_BASE {
                // A fresh symbol can be written back as its variable if
                // that variable still holds exactly this fresh value.
                let &orig = scan.fresh_names.get(&w)?;
                if scan.vals.get(&orig) != Some(&SymExpr::var(w)) {
                    return None;
                }
                out = out.subst(w, &SymExpr::var(orig));
            } else if w.0 >= ENTRY_BASE {
                let orig = VarId(w.0 - ENTRY_BASE);
                if scan.vals.contains_key(&orig) {
                    return None; // entry value no longer current
                }
                out = out.subst(w, &SymExpr::var(orig));
            }
        }
        Some(out)
    }

    // ----- the scan ---------------------------------------------------------

    fn scan_body(
        &mut self,
        body: &[StmtId],
        array: VarId,
        scan: &mut Scan,
        env: &RangeEnv,
    ) -> bool {
        for &s in body {
            if !self.scan_stmt(s, array, scan, env) {
                return false;
            }
        }
        true
    }

    /// Checks every read of `array` in the statement's own expressions.
    fn check_reads(&mut self, s: StmtId, array: VarId, scan: &mut Scan, env: &RangeEnv) -> bool {
        let mut accesses = Vec::new();
        stmt_array_accesses(self.ctx.program, s, &mut accesses);
        accesses
            .iter()
            .filter(|acc| !acc.is_write && acc.array == array)
            .all(|acc| self.read_covered(s, acc.subscripts, scan, env))
    }

    /// Checks that reading `array(subs...)` at `stmt` is covered by `W`.
    fn read_covered(
        &mut self,
        stmt: StmtId,
        subs: &[Expr],
        scan: &mut Scan,
        env: &RangeEnv,
    ) -> bool {
        let vals: Option<Vec<SymExpr>> = subs.iter().map(|e| self.to_value(e, scan)).collect();
        let Some(vals) = vals else {
            return false;
        };
        // Aggregate over the do-loop variables between `stmt` and the
        // target loop (the read happens for every inner iteration).
        let mut read = Section::point(vals);
        for &inner in self.ctx.enclosing_loops(stmt) {
            if inner == self.target {
                break;
            }
            let Some((ivar, ilo, ihi)) = self.ctx.do_bounds_sym(inner) else {
                return false; // inner while loop: unbounded reads
            };
            if read.mentions_var(ivar) {
                let (ilo, ihi) = (self.sym_to_value(&ilo, scan), self.sym_to_value(&ihi, scan));
                read = read.aggregate(ivar, &ilo, &ihi, env, AggMode::May);
            }
        }
        if scan.w.provably_contains(&read, env) {
            return true;
        }
        // Indirect read x(pos(k)) against W = [wl : wh] via a CFB query.
        if !self.enable_iaa {
            return false;
        }
        let Section::Dims(wdims) = &scan.w else {
            return false;
        };
        if wdims.len() != 1 {
            return false;
        }
        let (Bound::Finite(wl), Bound::Finite(wh)) = (&wdims[0].lo, &wdims[0].hi) else {
            return false;
        };
        let (Some(wl_prog), Some(wh_prog)) = (
            self.value_to_program(wl, scan),
            self.value_to_program(wh, scan),
        ) else {
            return false;
        };
        // The read must be exactly one index-array element pos(inner).
        if subs.len() != 1 {
            return false;
        }
        let Expr::Element(pos, inner_subs) = &subs[0] else {
            return false;
        };
        if inner_subs.len() != 1 {
            return false;
        }
        // The section of pos actually dereferenced (hull over inner
        // loops), in *program* space for the query.
        let Some(inner_val) = self.to_value(&inner_subs[0], scan) else {
            return false;
        };
        let mut pos_sec = Section::point(vec![inner_val]);
        for &l in self.ctx.enclosing_loops(stmt) {
            if l == self.target {
                break;
            }
            let Some((ivar, ilo, ihi)) = self.ctx.do_bounds_sym(l) else {
                return false;
            };
            if pos_sec.mentions_var(ivar) {
                let (ilo, ihi) = (self.sym_to_value(&ilo, scan), self.sym_to_value(&ihi, scan));
                pos_sec = pos_sec.aggregate(ivar, &ilo, &ihi, env, AggMode::May);
            }
        }
        let pos_sec_prog = match &pos_sec {
            Section::Dims(d) if d.len() == 1 => {
                let (Bound::Finite(l), Bound::Finite(h)) = (&d[0].lo, &d[0].hi) else {
                    return false;
                };
                let (Some(l), Some(h)) = (
                    self.value_to_program(l, scan),
                    self.value_to_program(h, scan),
                ) else {
                    return false;
                };
                Section::range1(l, h)
            }
            _ => return false,
        };
        // Query at the *reading* statement: the index array may have
        // been defined earlier in the same iteration (BDNA's gather
        // inside the privatized loop) or before the loop (Fig. 1(c)).
        let q = PropertyQuery {
            array: *pos,
            property: Property::ClosedFormBound {
                lo: Some(wl_prog),
                hi: Some(wh_prog),
            },
            section: pos_sec_prog,
            at_stmt: stmt,
        };
        if self.apa.check(&q) {
            scan.used_indirect = true;
            scan.properties.push((*pos, "CFB"));
            true
        } else {
            false
        }
    }

    fn scan_stmt(&mut self, s: StmtId, array: VarId, scan: &mut Scan, env: &RangeEnv) -> bool {
        let program = self.ctx.program;
        match &program.stmt(s).kind {
            StmtKind::Assign { lhs, rhs } => {
                if !self.check_reads(s, array, scan, env) {
                    return false;
                }
                match lhs {
                    LValue::Scalar(v) => match self.to_value(rhs, scan) {
                        Some(val) => {
                            scan.vals.insert(*v, val);
                        }
                        None => {
                            self.freshen(scan, *v);
                        }
                    },
                    LValue::Element(a, subs) => {
                        if *a == array {
                            let vals: Option<Vec<SymExpr>> =
                                subs.iter().map(|e| self.to_value(e, scan)).collect();
                            if let Some(vals) = vals {
                                let pt = Section::point(vals);
                                scan.w = scan.w.union_must(&pt, env);
                            }
                        }
                    }
                }
                true
            }
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                if !self.check_reads(s, array, scan, env) {
                    return false;
                }
                let mut scan_t = scan.clone();
                let mut scan_e = scan.clone();
                if !self.scan_body(then_body, array, &mut scan_t, env)
                    || !self.scan_body(else_body, array, &mut scan_e, env)
                {
                    return false;
                }
                scan.w = scan_t.w.intersect_must(&scan_e.w, env);
                let mut merged = FxHashMap::default();
                for (v, val) in &scan_t.vals {
                    if scan_e.vals.get(v) == Some(val) {
                        merged.insert(*v, val.clone());
                    }
                }
                scan.fresh_names.extend(scan_t.fresh_names.clone());
                scan.fresh_names.extend(scan_e.fresh_names.clone());
                let to_freshen: Vec<VarId> = scan_t
                    .vals
                    .keys()
                    .chain(scan_e.vals.keys())
                    .copied()
                    .filter(|v| !merged.contains_key(v))
                    .collect();
                scan.vals = merged;
                for v in to_freshen {
                    self.freshen(scan, v);
                }
                scan.used_cw = scan_t.used_cw || scan_e.used_cw;
                scan.used_indirect = scan_t.used_indirect || scan_e.used_indirect;
                scan.properties = scan_t.properties;
                scan.properties.extend(scan_e.properties);
                true
            }
            StmtKind::Do {
                var, lo, hi, body, ..
            } => {
                if !self.check_reads(s, array, scan, env) {
                    return false;
                }
                // A consecutively-written inner do loop (e.g. an index
                // gathering loop) contributes the section
                // [p_entry+1 : p_exit] just like the while-loop case.
                let (var, table) = (*var, self.ctx.loop_table(s));
                if self.enable_iaa && !table.reads(array) {
                    if let Some(cw_index) = self.cw_index_of(s, array) {
                        let p_entry = scan
                            .vals
                            .get(&cw_index)
                            .cloned()
                            .unwrap_or_else(|| entry_sym(cw_index));
                        let p_exit = self.fresh();
                        if let Some(fv) = p_exit.as_var() {
                            scan.fresh_names.insert(fv, cw_index);
                        }
                        let delta = Section::range1(p_entry.add(&SymExpr::int(1)), p_exit.clone());
                        scan.w = delta.union_must(&scan.w, env);
                        scan.used_cw = true;
                        for &v in &table.assigned_scalars {
                            if v == cw_index {
                                continue;
                            }
                            self.freshen(scan, v);
                        }
                        scan.vals.insert(cw_index, p_exit);
                        self.freshen(scan, var);
                        return true;
                    }
                }
                let lo_v = self.to_value(lo, scan);
                let hi_v = self.to_value(hi, scan);
                let mut inner = scan.clone();
                // Scalars carried across the inner loop's iterations have
                // unknown values at a generic iteration's entry — the
                // outer valuation is only valid for iteration 1.
                for &v in &table.assigned_scalars {
                    if v != var {
                        self.freshen(&mut inner, v);
                    }
                }
                // Inside, the loop var stands for itself (its range is
                // known), not for an entry value.
                inner.vals.insert(var, SymExpr::var(var));
                let mut env_inner = env.clone();
                if let (Some(l), Some(h)) = (&lo_v, &hi_v) {
                    env_inner.set_var_range(var, l.clone(), h.clone());
                }
                if !self.scan_body(body, array, &mut inner, &env_inner) {
                    return false;
                }
                // MUST-aggregate the writes over the loop range and keep
                // the pre-existing W.
                if let (Some(l), Some(h)) = (lo_v, hi_v) {
                    let agg = inner.w.aggregate(var, &l, &h, env, AggMode::Must);
                    scan.w = agg.union_must(&scan.w, env);
                }
                for &v in &table.assigned_scalars {
                    self.freshen(scan, v);
                }
                self.freshen(scan, var);
                scan.used_cw |= inner.used_cw;
                scan.used_indirect |= inner.used_indirect;
                scan.properties.extend(inner.properties);
                true
            }
            StmtKind::While { body, .. } => {
                if !self.check_reads(s, array, scan, env) {
                    return false;
                }
                // Consecutively-written while loop (Fig. 1(a)): the
                // writes cover [p_entry+1 : p_exit]. Only usable when
                // the array is not read inside the loop (a read could
                // precede the covering write).
                let table = self.ctx.loop_table(s);
                let mut handled_index: Option<VarId> = None;
                if self.enable_iaa && !table.reads(array) {
                    for si in irr_core::single_indexed_arrays(self.ctx, s) {
                        if si.array == array
                            && consecutively_written(self.ctx, s, array, si.index).is_some()
                        {
                            let p_entry = scan
                                .vals
                                .get(&si.index)
                                .cloned()
                                .unwrap_or_else(|| entry_sym(si.index));
                            let p_exit = self.fresh();
                            if let Some(fv) = p_exit.as_var() {
                                scan.fresh_names.insert(fv, si.index);
                            }
                            let delta =
                                Section::range1(p_entry.add(&SymExpr::int(1)), p_exit.clone());
                            scan.w = delta.union_must(&scan.w, env);
                            scan.vals.insert(si.index, p_exit);
                            scan.used_cw = true;
                            handled_index = Some(si.index);
                            break;
                        }
                    }
                }
                if handled_index.is_none() {
                    // Reads inside must be covered by the pre-loop W;
                    // writes contribute nothing (zero-trip possible).
                    // Iteration-carried scalars are unknown at a generic
                    // iteration entry.
                    let mut inner = scan.clone();
                    for &v in &table.assigned_scalars {
                        self.freshen(&mut inner, v);
                    }
                    if !self.scan_body(body, array, &mut inner, env) {
                        return false;
                    }
                    scan.properties.extend(inner.properties);
                }
                for &v in &table.assigned_scalars {
                    if Some(v) == handled_index {
                        continue; // already given its exit symbol
                    }
                    self.freshen(scan, v);
                }
                true
            }
            StmtKind::Call { proc } => {
                let callee = BodyTable::of(program, &program.procedure(*proc).body);
                let mut mentions_it = callee.written_arrays.contains(&array);
                for &t in &callee.stmts {
                    irr_frontend::visit::for_each_expr_in_stmt(program, t, |e| {
                        mentions_it |= e.mentions(array);
                    });
                }
                if mentions_it {
                    return false;
                }
                for &v in &callee.assigned_scalars {
                    self.freshen(scan, v);
                }
                true
            }
            StmtKind::Print { .. } | StmtKind::Return => self.check_reads(s, array, scan, env),
        }
    }
}

fn collect_program_vars(e: &SymExpr, out: &mut Vec<VarId>) {
    for a in e.atoms() {
        match a {
            Atom::Var(v) => {
                if !is_value_space_var(*v) && !out.contains(v) {
                    out.push(*v);
                }
            }
            Atom::Elem(_, subs) => {
                for s in subs.iter() {
                    collect_program_vars(s, out);
                }
            }
            Atom::Opaque(_, args) => {
                for s in args.iter() {
                    collect_program_vars(s, out);
                }
            }
        }
    }
}

fn collect_all_vars(e: &SymExpr, out: &mut Vec<VarId>) {
    for a in e.atoms() {
        match a {
            Atom::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Atom::Elem(_, subs) => {
                for s in subs.iter() {
                    collect_all_vars(s, out);
                }
            }
            Atom::Opaque(_, args) => {
                for s in args.iter() {
                    collect_all_vars(s, out);
                }
            }
        }
    }
}

// Whole-program tests live in `tests/privatize.rs`.
