//! Regenerates paper Table II (FPGA implementation comparison).
use looplynx_bench::{experiments, paper};
use looplynx_model::ModelConfig;

fn main() {
    let model = ModelConfig::gpt2_medium();
    print!("{}", experiments::render_table2(&model));
    println!();
    println!("paper-vs-measured (token latency):");
    for (row, paper_ms) in experiments::table2_vs_paper(&model) {
        let design = format!("{} {}", row.name, row.nodes_desc);
        let cell = paper::compare(row.token_latency_ms, paper_ms);
        println!("  {design:<28} {cell}");
    }
}
