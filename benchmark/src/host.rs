//! Host and run metadata, and the process's own memory high-water mark.

use crate::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Cores the process may run on, as of the first call: the count is
/// taken before the run pins itself and stays what the host has.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Worker threads for the hybrid runtime and the service, and
/// closed-loop clients: never more than the host has cores, so a
/// parallel number is not a time-slicing artefact.
pub fn load_threads() -> usize {
    nproc().min(4)
}

/// The benchmark's own directory (`benchmark/`). Known from the build:
/// the program is built in the checkout it runs in.
pub fn benchmark_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/out/`, created on demand.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = benchmark_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split(':').nth(1)?.trim().to_string())
}

/// What a reader needs to interpret a number: the host, the toolchain,
/// the commit and the thread count the load was sized to. A checkout
/// that is not a git repository reports its commit as `unknown`.
pub fn metadata() -> Json {
    let unknown = || "unknown".to_string();
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("threads", Json::Num(load_threads() as f64)),
        ("cpu", Json::Str(cpu_model().unwrap_or_else(unknown))),
        (
            "rustc",
            Json::Str(first_line_of(Command::new("rustc").arg("-V")).unwrap_or_else(unknown)),
        ),
        (
            "commit",
            Json::Str(
                first_line_of(
                    Command::new("git")
                        .arg("-C")
                        .arg(benchmark_dir())
                        .args(["rev-parse", "HEAD"]),
                )
                .unwrap_or_else(unknown),
            ),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}

/// Pins the calling thread, and every thread it starts afterwards, to
/// the last core. All load of a run then shares that one core.
///
/// Every workload does this, for two reasons measured on the 2-vCPU
/// sandbox this benchmark has to be steady on. Threads that hand work to
/// each other every few microseconds (a request and its reply; 200
/// dispatches of a 4 096-nonzero loop) pay for a wake-up across cores
/// with an interrupt to a halted vCPU that takes 20 to 50 us, varying by
/// the minute: `service-warm` measured a median latency of 38 us with a
/// quartile distance of 27 % across ten runs on two cores, 15 us with
/// 7 % on one. And the two vCPUs are slowed by their neighbours
/// independently, while the calibration slices ([`Calibrator`]) see the
/// core they run on: `exec-large`, whose workers run side by side for
/// tens of milliseconds, repeated to 8 % (`work_ms`) and 10 % (`p50_us`)
/// on two cores and to 2.4 % and 1.2 % on one. On one core a wake-up is
/// a context switch, and what a run measures is the total CPU cost of
/// its operations, including everything parallel dispatch adds — not
/// parallel speed-up, which the traced run reports with the pin lifted
/// (`runtime.scaling_x`).
pub fn pin_to_last_core() -> Result<(), String> {
    set_affinity(&[nproc() - 1])
}

/// Lets the calling thread run on every core again.
pub fn unpin() -> Result<(), String> {
    set_affinity(&(0..nproc()).collect::<Vec<_>>())
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn set_affinity(cpus: &[usize]) -> Result<(), String> {
    // The kernel's cpu_set_t: 1024 bits.
    let mut mask = [0u64; 16];
    for cpu in cpus {
        *mask
            .get_mut(cpu / 64)
            .ok_or(format!("core {cpu} is beyond the affinity mask"))? |= 1 << (cpu % 64);
    }
    // SAFETY: pid 0 names the calling thread; `mask` outlives the call
    // and the size passed is its size.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("sched_setaffinity to cores {cpus:?} failed"))
    }
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Tells the allocator to keep what the program frees instead of handing
/// it back to the kernel: no `mmap` for blocks below 32 MiB (glibc's
/// ceiling) and no trimming.
///
/// The execution workloads clone megabyte arrays for every run and every
/// worker. By default each clone is a fresh `mmap`, every page of it
/// faults, and in a virtual machine a page fault goes through the
/// hypervisor, whose cost moves with the host's memory pressure: over ten
/// 20 s runs `exec-reentry` measured 510 ms with a quartile distance of
/// 12 % without this and 358 ms with 3 % with it. With freed memory
/// kept, a run measures the program on a warm heap — the state of any
/// process that has been up for a second.
pub fn keep_freed_memory() {
    #[cfg(target_env = "gnu")]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only sets allocator parameters; it is called
        // once, before any other thread exists. A refused parameter
        // leaves the default in place, which is safe.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        }
    }
}

/// One value of the probe's little machine, shaped like the values the
/// interpreters under test compute with.
#[derive(Clone, Copy)]
enum Cell {
    Int(i64),
    Real(f64),
}

impl Cell {
    fn int(self) -> i64 {
        match self {
            Cell::Int(i) => i,
            Cell::Real(f) => f as i64,
        }
    }

    fn real(self) -> f64 {
        match self {
            Cell::Real(f) => f,
            Cell::Int(i) => i as f64,
        }
    }
}

/// Register-machine instructions; `u8` operands name registers or arrays.
#[derive(Clone, Copy)]
enum Op {
    Const(u8, Cell),
    AddI(u8, u8, u8),
    AddF(u8, u8, u8),
    MulF(u8, u8, u8),
    /// `r[d] = array[a][r[i]]`
    Load(u8, u8, u8),
    /// `array[a][r[i]] = r[s]`, through the write log
    Store(u8, u8, u8),
    /// Jumps unless `r[a] < r[b]`.
    UnlessLt(u8, u8, u16),
    Jump(u16),
    Halt,
}

/// The calibration work: a register machine of the benchmark's own that
/// interprets a sparse matrix-vector product (256 rows, 4 096 nonzeros,
/// about 130 KiB of arrays), logs every store and commits the log.
///
/// It is this kind of code, and not an arithmetic loop, because the host
/// slows different code by different amounts. What this sandbox's
/// neighbours take away is mostly issue slots and cache of the shared
/// physical core: over 20 s windows the sequential bytecode run of a
/// sweep source moved by 15 % (quartile distance) and a serial xorshift
/// chain over a 64 KiB table, which waits on its own latency and hardly
/// competes for either, by 6 %, uncorrelated with the bytecode run.
/// Everything this benchmark measures is interpreters, analysers and
/// allocation: branchy, load-heavy integer code. The probe is the same
/// kind of code and slows with it (see the README for what that buys).
struct ProbeVm {
    code: Vec<Op>,
    arrays: Vec<Vec<Cell>>,
}

impl ProbeVm {
    const ROWS: usize = 256;
    const PER_ROW: usize = 16;

    fn new() -> ProbeVm {
        let nnz = Self::ROWS * Self::PER_ROW;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |below: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % below
        };
        let ptr = (0..=Self::ROWS)
            .map(|r| Cell::Int((r * Self::PER_ROW) as i64))
            .collect();
        let col = (0..nnz)
            .map(|_| Cell::Int(next(Self::ROWS as u64) as i64))
            .collect();
        let val = (0..nnz)
            .map(|_| Cell::Real(next(1000) as f64 / 8.0))
            .collect();
        let xs = (0..Self::ROWS)
            .map(|_| Cell::Real(next(1000) as f64 / 16.0))
            .collect();
        let y = vec![Cell::Real(0.0); Self::ROWS];
        // Arrays: 0 ptr, 1 col, 2 val, 3 x, 4 y. Registers: 0 row,
        // 1 rows, 2 one, 3 k, 4 row end, 5 sum, 6 column, 7 value,
        // 8 x(column), 9 product, 10 row + 1.
        let code = vec![
            Op::Const(0, Cell::Int(0)),
            Op::Const(1, Cell::Int(Self::ROWS as i64)),
            Op::Const(2, Cell::Int(1)),
            Op::UnlessLt(0, 1, 19), // 3: next row
            Op::Load(3, 0, 0),
            Op::AddI(10, 0, 2),
            Op::Load(4, 0, 10),
            Op::Const(5, Cell::Real(0.0)),
            Op::UnlessLt(3, 4, 16), // 8: next nonzero
            Op::Load(6, 1, 3),
            Op::Load(7, 2, 3),
            Op::Load(8, 3, 6),
            Op::MulF(9, 7, 8),
            Op::AddF(5, 5, 9),
            Op::AddI(3, 3, 2),
            Op::Jump(8),
            Op::Store(4, 0, 5), // 16: row done
            Op::AddI(0, 0, 2),
            Op::Jump(3),
            Op::Halt, // 19
        ];
        ProbeVm {
            code,
            arrays: vec![ptr, col, val, xs, y],
        }
    }

    /// Interprets the program once with a fresh register file and write
    /// log, commits the log and returns the sum of what it stored.
    fn run(&mut self) -> f64 {
        let mut regs = vec![Cell::Int(0); 16];
        let mut log: Vec<(u8, u32, Cell)> = Vec::new();
        let mut pc = 0;
        loop {
            match self.code[pc] {
                Op::Const(d, c) => regs[d as usize] = c,
                Op::AddI(d, a, b) => {
                    regs[d as usize] = Cell::Int(regs[a as usize].int() + regs[b as usize].int());
                }
                Op::AddF(d, a, b) => {
                    regs[d as usize] =
                        Cell::Real(regs[a as usize].real() + regs[b as usize].real());
                }
                Op::MulF(d, a, b) => {
                    regs[d as usize] =
                        Cell::Real(regs[a as usize].real() * regs[b as usize].real());
                }
                Op::Load(d, a, i) => {
                    regs[d as usize] = self.arrays[a as usize][regs[i as usize].int() as usize];
                }
                Op::Store(a, i, s) => {
                    log.push((a, regs[i as usize].int() as u32, regs[s as usize]))
                }
                Op::UnlessLt(a, b, target) => {
                    if regs[a as usize].int() >= regs[b as usize].int() {
                        pc = target as usize;
                        continue;
                    }
                }
                Op::Jump(target) => {
                    pc = target as usize;
                    continue;
                }
                Op::Halt => break,
            }
            pc += 1;
        }
        let mut sum = 0.0;
        for (a, i, c) in log {
            self.arrays[a as usize][i as usize] = c;
            sum += c.real();
        }
        sum
    }
}

/// A fixed piece of work (see [`ProbeVm`]) run in short slices between
/// operations, so that a run knows how fast the host was while it
/// measured. The sandbox slows down and speeds up by 10 to 40 % in
/// phases that last from a second to ten minutes; every time the
/// benchmark reports is scaled by this measure, either sample by sample
/// ([`Calibrator::scale_now`]) or for the whole run
/// ([`Calibrator::correction`]).
pub struct Calibrator {
    last: Instant,
    vm: ProbeVm,
    checksum: f64,
    slices_ns: Vec<f64>,
}

impl Calibrator {
    /// Slices are at least this far apart: 1 % of a run is calibration.
    const EVERY: Duration = Duration::from_millis(20);
    /// What a slice takes on the host the baseline was recorded on, in a
    /// quiet moment. Reported times are scaled to this speed, so they
    /// read as real times on that host.
    pub const REFERENCE_US: f64 = 200.0;

    pub fn new() -> Calibrator {
        let mut vm = ProbeVm::new();
        let checksum = vm.run();
        Calibrator {
            last: Instant::now(),
            vm,
            checksum,
            slices_ns: Vec::new(),
        }
    }

    /// Runs one slice (about 0.2 ms) if the last one is long enough ago.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= Self::EVERY {
            self.slice();
        }
    }

    /// Runs one slice, two runs of the probe, and returns what it took in
    /// nanoseconds.
    pub fn slice(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..2 {
            let sum = std::hint::black_box(self.vm.run());
            assert!(
                sum == self.checksum,
                "the calibration probe does not repeat"
            );
        }
        self.last = Instant::now();
        let ns = (self.last - t0).as_nanos() as f64;
        self.slices_ns.push(ns);
        ns
    }

    /// Runs `slices` slices and returns their mean in nanoseconds.
    pub fn slices(&mut self, slices: usize) -> f64 {
        (0..slices).map(|_| self.slice()).sum::<f64>() / slices as f64
    }

    /// Runs `slices` slices and returns what to multiply the time of the
    /// operation that follows by to get its time at the reference speed.
    /// The host's speed a moment ago says more about the next 100 ms
    /// than the median over the run does: over 20 s windows of
    /// `exec-reentry` in a noisy quarter of an hour, scaling each sample
    /// by the slices before it brought the quartile distance of the
    /// windows' medians from 10–13 % to 3.5–5 %.
    pub fn scale_now(&mut self, slices: usize) -> f64 {
        Self::REFERENCE_US * 1e3 / self.slices(slices)
    }

    /// Takes over the slices another thread's calibrator ran.
    pub fn absorb(&mut self, other: Calibrator) {
        self.slices_ns.extend(other.slices_ns);
    }

    /// Median slice time in microseconds.
    pub fn median_us(&self) -> f64 {
        crate::stats::median_of(&self.slices_ns) / 1e3
    }

    /// What to multiply a time measured over the whole run by to get the
    /// time at the reference speed: below 1 when the host was slower
    /// than the reference while the run measured.
    pub fn correction(&self) -> f64 {
        if self.slices_ns.is_empty() {
            1.0
        } else {
            Self::REFERENCE_US / self.median_us()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_computes_the_product_it_interprets_and_repeats() {
        let mut vm = ProbeVm::new();
        let [ptr, col, val, x, _] = &vm.arrays[..] else {
            panic!("the probe has five arrays");
        };
        let mut want = 0.0;
        for r in 0..ProbeVm::ROWS {
            let mut sum = 0.0;
            for k in ptr[r].int() as usize..ptr[r + 1].int() as usize {
                sum += val[k].real() * x[col[k].int() as usize].real();
            }
            want += sum;
        }
        assert!(want > 0.0);
        assert_eq!(vm.run(), want);
        assert_eq!(vm.run(), want);
    }

    #[test]
    fn a_scale_is_the_reference_over_the_slices_before_it() {
        let mut c = Calibrator::new();
        let scale = c.scale_now(4);
        assert_eq!(c.slices_ns.len(), 4);
        let mean = c.slices_ns.iter().sum::<f64>() / 4.0;
        assert!((scale - Calibrator::REFERENCE_US * 1e3 / mean).abs() < 1e-12);
    }
}
