//! The thermal testbed: per-DIMM heaters under closed-loop PID control.
//!
//! The paper's setup (§IV-A, Figs. 5/6) fits each DIMM with a resistive
//! heating element and thermocouple, driven by four closed-loop PID
//! controllers on a Raspberry Pi. This module simulates that plant: a
//! first-order thermal model per DIMM with a PID loop that the campaign
//! uses to set and settle 50/60/70 °C before characterizing.

/// A textbook PID controller.
#[derive(Debug, Clone)]
pub(crate) struct PidController {
    kp: f64,
    ki: f64,
    kd: f64,
    integral: f64,
    last_error: Option<f64>,
    output_limit: f64,
}

impl PidController {
    /// Creates a controller with the given gains and output saturation.
    pub(crate) fn new(kp: f64, ki: f64, kd: f64, output_limit: f64) -> Self {
        Self { kp, ki, kd, integral: 0.0, last_error: None, output_limit }
    }

    /// One control step: returns the actuation (heater watts) for the
    /// current error, advancing internal state by `dt` seconds.
    pub(crate) fn step(&mut self, error: f64, dt: f64) -> f64 {
        self.integral += error * dt;
        // Anti-windup: clamp the integral to what the actuator can express.
        let i_cap = self.output_limit / self.ki.max(1e-9);
        self.integral = self.integral.clamp(-i_cap, i_cap);
        let derivative = match self.last_error {
            Some(prev) => (error - prev) / dt,
            None => 0.0,
        };
        self.last_error = Some(error);
        (self.kp * error + self.ki * self.integral + self.kd * derivative)
            .clamp(0.0, self.output_limit)
    }

    /// Resets integral/derivative state (new setpoint).
    pub(crate) fn reset(&mut self) {
        self.integral = 0.0;
        self.last_error = None;
    }
}

/// First-order thermal plant + PID loop per DIMM.
#[derive(Debug, Clone)]
pub(crate) struct ThermalTestbed {
    temps_c: [f64; 4],
    targets_c: [f64; 4],
    controllers: Vec<PidController>,
    ambient_c: f64,
    /// Thermal mass (J/°C) of a DIMM + adapter.
    heat_capacity: f64,
    /// Loss coefficient (W/°C) to ambient.
    loss_coeff: f64,
}

impl ThermalTestbed {
    /// Builds the testbed at ambient temperature (server inlet ~35 °C).
    pub(crate) fn new() -> Self {
        let ambient = 35.0;
        Self {
            temps_c: [ambient; 4],
            targets_c: [ambient; 4],
            controllers: (0..4).map(|_| PidController::new(8.0, 0.08, 1.0, 60.0)).collect(),
            ambient_c: ambient,
            heat_capacity: 60.0,
            loss_coeff: 0.8,
        }
    }

    /// Sets the target temperature of one DIMM.
    ///
    /// # Panics
    /// Panics if `dimm >= 4`.
    pub(crate) fn set_target(&mut self, dimm: usize, target_c: f64) {
        assert!(dimm < 4, "dimm {dimm} out of range");
        self.targets_c[dimm] = target_c;
        self.controllers[dimm].reset();
    }

    /// Sets all DIMMs to the same target (the campaign's usual mode).
    pub(crate) fn set_all_targets(&mut self, target_c: f64) {
        for d in 0..4 {
            self.set_target(d, target_c);
        }
    }

    /// Advances the plant by `dt` seconds.
    pub(crate) fn step(&mut self, dt: f64) {
        for d in 0..4 {
            let error = self.targets_c[d] - self.temps_c[d];
            let power = self.controllers[d].step(error, dt);
            let d_temp =
                (power - self.loss_coeff * (self.temps_c[d] - self.ambient_c)) / self.heat_capacity;
            self.temps_c[d] += d_temp * dt;
        }
    }

    /// Steps until every DIMM is within `tol_c` of target (or the time
    /// budget runs out). Returns the simulated seconds elapsed.
    pub(crate) fn settle(&mut self, tol_c: f64, max_seconds: f64) -> f64 {
        let dt = 1.0;
        let mut elapsed = 0.0;
        while elapsed < max_seconds {
            if self
                .temps_c
                .iter()
                .zip(self.targets_c.iter())
                .all(|(t, g)| (t - g).abs() <= tol_c)
            {
                return elapsed;
            }
            self.step(dt);
            elapsed += dt;
        }
        elapsed
    }
}

impl Default for ThermalTestbed {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_settles_on_target() {
        let mut bed = ThermalTestbed::new();
        bed.set_all_targets(70.0);
        let t = bed.settle(0.5, 3600.0);
        assert!(t < 3600.0, "did not settle");
        for temp in bed.temps_c {
            assert!((temp - 70.0).abs() <= 0.5, "temp {temp}");
        }
    }

    #[test]
    fn dimms_are_independent() {
        let mut bed = ThermalTestbed::new();
        bed.set_target(0, 50.0);
        bed.set_target(3, 70.0);
        bed.settle(0.5, 3600.0);
        let temps = bed.temps_c;
        assert!((temps[0] - 50.0).abs() < 1.0);
        assert!((temps[3] - 70.0).abs() < 1.0);
        assert!(temps[3] > temps[0] + 15.0);
    }

    #[test]
    fn overshoot_is_bounded() {
        let mut bed = ThermalTestbed::new();
        bed.set_all_targets(60.0);
        let mut max_temp: f64 = 0.0;
        for _ in 0..3600 {
            bed.step(1.0);
            max_temp = max_temp.max(bed.temps_c[0]);
        }
        assert!(max_temp < 66.0, "overshoot to {max_temp}");
    }

    #[test]
    fn heater_cannot_cool_below_ambient() {
        let mut bed = ThermalTestbed::new();
        bed.set_all_targets(10.0); // below ambient: unreachable
        bed.settle(0.5, 600.0);
        for temp in bed.temps_c {
            assert!(temp >= 34.0, "temp {temp} below ambient");
        }
    }

    #[test]
    fn pid_output_saturates() {
        let mut pid = PidController::new(100.0, 1.0, 0.0, 60.0);
        assert_eq!(pid.step(1000.0, 1.0), 60.0);
        assert_eq!(pid.step(-1000.0, 1.0), 0.0);
    }
}
