//! The `amdb` binary: see `amdb_experiments::cli`.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(amdb_experiments::cli::main(&argv));
}
