//! Regenerate Fig. 3 (Q-Learning resource utilization and power).
fn main() {
    let f = qtaccel_bench::experiments::fig3::run(262_144);
    print!(
        "{}",
        f.render("Fig. 3: Q-Learning resources on xcvu13p (|A|=8)")
    );
    let path = qtaccel_bench::report::save_json("fig3", &f);
    println!("saved {}", path.display());
}
