//! Grid-spec text for the three campaign workloads and the probes. The
//! seed is written into the text because fleet children and the server
//! re-parse the exact string.

use sched::GridSpec;

pub struct Grid<'a> {
    pub lside: usize,
    pub us: &'a [f64],
    pub betas: &'a [f64],
    pub chains: usize,
    pub crowd: usize,
    pub warmup: usize,
    pub sweeps: usize,
    pub workers: usize,
    pub devices: usize,
    pub quantum: usize,
    pub seed: u64,
}

impl Grid<'_> {
    pub fn text(&self) -> String {
        let list = |xs: &[f64]| {
            xs.iter()
                .map(|x| format!("{x:?}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "lx = {l}\nly = {l}\nu = {u}\nbeta = {beta}\nchains = {chains}\ncrowd = {crowd}\n\
             warmup = {warmup}\nsweeps = {sweeps}\nbin_size = 4\ncluster_size = 8\n\
             seed = {seed}\nworkers = {workers}\ndevices = {devices}\nquantum = {quantum}\n",
            l = self.lside,
            u = list(self.us),
            beta = list(self.betas),
            chains = self.chains,
            crowd = self.crowd,
            warmup = self.warmup,
            sweeps = self.sweeps,
            seed = self.seed,
            workers = self.workers,
            devices = self.devices,
            quantum = self.quantum,
        )
    }

    pub fn spec(&self) -> GridSpec {
        GridSpec::parse(&self.text()).expect("benchmark grid parses")
    }

    pub fn points(&self) -> usize {
        self.us.len() * self.betas.len()
    }

    /// Markov chains one run of this grid completes.
    pub fn total_chains(&self) -> usize {
        self.points() * self.chains
    }

    pub fn describe(&self) -> String {
        format!(
            "{l}x{l} sites, u {:?} x beta {:?}, {} chains/point, crowd {}, warmup {} + sweeps {}, \
             quantum {}, workers {}, devices {}",
            self.us,
            self.betas,
            self.chains,
            self.crowd,
            self.warmup,
            self.sweeps,
            self.quantum,
            self.workers,
            self.devices,
            l = self.lside,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trips_through_the_parser() {
        let grid = Grid {
            lside: 6,
            us: &[2.0, 4.0],
            betas: &[0.5, 1.0],
            chains: 4,
            crowd: 2,
            warmup: 3,
            sweeps: 9,
            workers: 2,
            devices: 1,
            quantum: 5,
            seed: 77,
        };
        let spec = grid.spec();
        assert_eq!((spec.lx, spec.ly, spec.chains, spec.crowd), (6, 6, 4, 2));
        assert_eq!(
            (spec.warmup, spec.sweeps, spec.quantum, spec.seed),
            (3, 9, 5, 77)
        );
        assert_eq!(spec.us, vec![2.0, 4.0]);
        assert_eq!(spec.points().len(), grid.points());
        assert_eq!(spec.total_jobs(), grid.total_chains());
    }
}
