//! Pipeline visualizer: render ScratchPipe's five-stage pipelined execution
//! as an ASCII Gantt chart (the paper's Figure 9/10, drawn from a schedule
//! simulated on the runtime's own dependency graph), and contrast it with
//! the straw-man: the same graph with one payload.
//!
//! ```bash
//! cargo run --release --example pipeline_visualizer
//! ```

use memsim::pipeline::{PipelineSim, Resource, StageDef, StageTimes};
use memsim::SimTime;
use scratchpipe::{Schedule, StageId};

fn render(title: &str, sim: &PipelineSim, times: &[StageTimes], width: usize) {
    let sched = sim.schedule(times);
    println!("\n=== {title} ===");
    println!(
        "makespan {:.1} ms | steady-state iteration {:.1} ms",
        sched.makespan.as_millis(),
        sched.steady_state_iteration_time().as_millis()
    );
    let scale = width as f64 / sched.makespan.as_secs();
    for (s, def) in sim.stages().iter().enumerate() {
        let mut line = vec![b' '; width + 1];
        for slot in sched.slots.iter().filter(|sl| sl.stage == s) {
            let a = (slot.start.as_secs() * scale) as usize;
            let b = ((slot.finish.as_secs() * scale) as usize).min(width);
            let glyph = b"0123456789"[slot.iteration % 10];
            for c in &mut line[a..=b] {
                *c = glyph;
            }
        }
        println!(
            "{:<9} [{:<8}] |{}|",
            def.name,
            def.resource.to_string(),
            String::from_utf8(line).expect("ascii")
        );
    }
    for r in [Resource::Gpu, Resource::CpuMem, Resource::PcieH2D] {
        println!(
            "  {:<9} utilization {:>5.1}%",
            r.to_string(),
            100.0 * sched.utilization(r)
        );
    }
}

fn main() {
    // Representative steady-state stage latencies for a medium-locality
    // trace at a 2 % scratchpad (`repro_report fig12b`): the digits in the
    // chart are mini-batch indices mod 10.
    let ms = SimTime::from_millis;
    let stage_time = StageTimes(vec![
        ms(0.9),  // Plan       (GPU)
        ms(9.5),  // Collect    (CPU memory)
        ms(6.2),  // Exchange   (PCIe)
        ms(10.8), // Insert     (CPU memory)
        ms(20.5), // Train      (GPU)
    ]);
    let defs: Vec<StageDef> = StageId::ALL
        .map(|s| StageDef::new(s.name(), s.resource()))
        .to_vec();
    let n = 8;

    // ScratchPipe: stages of consecutive batches overlap, six payloads
    // circulating.
    let pipelined = PipelineSim::new(defs.clone(), Schedule::Sync.edges());
    render(
        "ScratchPipe (pipelined — paper Figure 10)",
        &pipelined,
        &vec![stage_time.clone(); n],
        100,
    );

    // Straw-man: the same graph with one payload, so a batch enters
    // [Plan] only once the one before it has left [Train].
    let strawman = PipelineSim::new(defs, Schedule::Sequential.edges());
    render(
        "Straw-man (sequential — paper §IV-B)",
        &strawman,
        &vec![stage_time; n],
        100,
    );

    println!(
        "\nThe pipelined schedule completes one mini-batch per max-stage time \
         (the red 'cycle' of Figure 7) instead of one per *sum* of stages — \
         that difference is the paper's 1.8x straw-man→ScratchPipe gain."
    );
}
