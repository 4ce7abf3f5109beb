//! Benchmarks of the substrate: the Fig. 15 scalar passes, graph
//! construction, the interpreter, and the Fig. 16 speedup simulation.

use irr_bench::harness::Runner;
use irr_bench::{profile_run, Config};
use irr_exec::{simulate_speedup, Interp, MachineModel};
use irr_frontend::parse_program;
use irr_graph::{Cfg, Hcg};
use irr_passes::{
    eliminate_dead_code, forward_substitute, inline_small_procedures, normalize_loops,
    propagate_constants, substitute_induction_variables,
};
use irr_programs::{all, Scale};

fn passes(r: &Runner) {
    let b = all(Scale::Test)
        .into_iter()
        .find(|b| b.name == "DYFESM")
        .unwrap();
    let program = parse_program(&b.source).unwrap();
    let mut g = r.group("passes");
    g.bench_with_setup(
        "inline",
        || program.clone(),
        |mut p| inline_small_procedures(&mut p, 50),
    );
    g.bench_with_setup(
        "constprop",
        || program.clone(),
        |mut p| propagate_constants(&mut p),
    );
    g.bench_with_setup(
        "forward-sub",
        || program.clone(),
        |mut p| forward_substitute(&mut p),
    );
    g.bench_with_setup(
        "induction",
        || program.clone(),
        |mut p| substitute_induction_variables(&mut p),
    );
    g.bench_with_setup(
        "normalize",
        || program.clone(),
        |mut p| normalize_loops(&mut p),
    );
    g.bench_with_setup(
        "dce",
        || program.clone(),
        |mut p| eliminate_dead_code(&mut p),
    );
}

fn graphs(r: &Runner) {
    let b = all(Scale::Test)
        .into_iter()
        .find(|b| b.name == "TREE")
        .unwrap();
    let program = parse_program(&b.source).unwrap();
    let mut g = r.group("graphs");
    g.bench_function("hcg-build", || Hcg::build(&program));
    let main_body = program.procedures[program.main().index()].body.clone();
    g.bench_function("cfg-build", || Cfg::build(&program, &main_body));
}

fn execution(r: &Runner) {
    let mut g = r.group("execution");
    g.sample_size(10);
    for b in all(Scale::Test) {
        let program = parse_program(&b.source).unwrap();
        g.bench_function(&format!("interpret/{}", b.name), || {
            Interp::new(&program).run().expect("runs")
        });
    }
    // Speedup simulation itself (per Fig. 16 data point).
    let tree = all(Scale::Test)
        .into_iter()
        .find(|b| b.name == "TREE")
        .unwrap();
    let run = profile_run(&tree.source, Config::WithIaa);
    let origin = MachineModel::origin2000();
    g.bench_function("simulate-speedup-32", || {
        simulate_speedup(&run.profile, 32, &origin)
    });
}

fn main() {
    let r = Runner::from_env();
    passes(&r);
    graphs(&r);
    execution(&r);
    std::process::exit(r.finalize());
}
