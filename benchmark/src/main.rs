//! The benchmark's command line (see `fortika_benchmark::cli`).

fn main() -> std::process::ExitCode {
    fortika_benchmark::cli::main(None)
}
