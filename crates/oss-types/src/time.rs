//! Simulated time.
//!
//! Every timestamp in the reproduction is a [`SimTime`]: minutes elapsed
//! since the *simulation epoch*, 2017-01-01 00:00. Using an explicit
//! simulated clock keeps the entire study deterministic (no host-clock
//! reads) while remaining fine-grained enough to model the hours-scale
//! race between mirror synchronization and package removal (paper Fig. 5).

use crate::error::ParseError;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::str::FromStr;

/// Year of the simulation epoch (`SimTime::EPOCH` is 2017-01-01 00:00).
pub const EPOCH_YEAR: i32 = 2017;

const MINUTES_PER_HOUR: u64 = 60;
const MINUTES_PER_DAY: u64 = 24 * MINUTES_PER_HOUR;

/// A span of simulated time, stored as whole minutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A duration of `n` minutes.
    pub const fn minutes(n: u64) -> Self {
        SimDuration(n)
    }

    /// A duration of `n` hours.
    pub const fn hours(n: u64) -> Self {
        SimDuration(n * MINUTES_PER_HOUR)
    }

    /// A duration of `n` days.
    pub const fn days(n: u64) -> Self {
        SimDuration(n * MINUTES_PER_DAY)
    }

    /// A duration of `n` (365-day) years. Calendar years are handled by
    /// [`SimTime`]; this helper is only used for coarse thresholds such as
    /// "active period < 3 years" (paper Fig. 9).
    pub const fn years(n: u64) -> Self {
        SimDuration(n * 365 * MINUTES_PER_DAY)
    }

    /// Total whole minutes.
    pub const fn as_minutes(self) -> u64 {
        self.0
    }

    /// Total whole hours (truncating).
    pub const fn as_hours(self) -> u64 {
        self.0 / MINUTES_PER_HOUR
    }

    /// Total whole days (truncating).
    pub const fn as_days(self) -> u64 {
        self.0 / MINUTES_PER_DAY
    }

    /// Fractional days, for CDF plotting.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / MINUTES_PER_DAY as f64
    }

    /// Fractional (365-day) years, for CDF plotting (paper Fig. 9).
    pub fn as_years_f64(self) -> f64 {
        self.as_days_f64() / 365.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let days = self.as_days();
        let hours = self.as_hours() % 24;
        let minutes = self.as_minutes() % 60;
        write!(f, "{days}d{hours:02}h{minutes:02}m")
    }
}

/// An instant of simulated time: minutes since 2017-01-01 00:00.
///
/// `SimTime` supports proper Gregorian-calendar conversion so that release
/// timelines (paper Fig. 2, Fig. 8) can be bucketed by calendar month and
/// printed as dates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch, 2017-01-01 00:00.
    pub const EPOCH: SimTime = SimTime(0);

    /// Constructs a time `minutes` after the epoch.
    pub const fn from_minutes(minutes: u64) -> Self {
        SimTime(minutes)
    }

    /// Minutes since the epoch.
    pub const fn as_minutes(self) -> u64 {
        self.0
    }

    /// Constructs a time at 00:00 on the given calendar date.
    ///
    /// # Panics
    ///
    /// Panics if the date is before 2017-01-01 or not a valid calendar
    /// date (month outside 1..=12, day outside the month's length).
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Self {
        assert!(year >= EPOCH_YEAR, "SimTime cannot predate {EPOCH_YEAR}");
        assert!((1..=12).contains(&month), "month out of range: {month}");
        let dim = days_in_month(year, month);
        assert!(
            (1..=dim).contains(&day),
            "day out of range for {year}-{month:02}: {day}"
        );
        let mut days: u64 = 0;
        for y in EPOCH_YEAR..year {
            days += days_in_year(y) as u64;
        }
        for m in 1..month {
            days += days_in_month(year, m) as u64;
        }
        days += (day - 1) as u64;
        SimTime(days * MINUTES_PER_DAY)
    }

    /// Decomposes into `(year, month, day)`.
    pub fn to_ymd(self) -> (i32, u32, u32) {
        let mut days = self.0 / MINUTES_PER_DAY;
        let mut year = EPOCH_YEAR;
        loop {
            let diy = days_in_year(year) as u64;
            if days < diy {
                break;
            }
            days -= diy;
            year += 1;
        }
        let mut month = 1;
        loop {
            let dim = days_in_month(year, month) as u64;
            if days < dim {
                break;
            }
            days -= dim;
            month += 1;
        }
        (year, month, days as u32 + 1)
    }

    /// Calendar year of this instant.
    pub fn year(self) -> i32 {
        self.to_ymd().0
    }

    /// Calendar month (1–12) of this instant.
    pub fn month(self) -> u32 {
        self.to_ymd().1
    }

    /// Quarter (1–4) of this instant, for timeline bucketing (Fig. 2).
    pub fn quarter(self) -> u32 {
        (self.month() - 1) / 3 + 1
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is actually later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_minutes())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_minutes();
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.to_ymd();
        let minute_of_day = self.0 % MINUTES_PER_DAY;
        write!(
            f,
            "{y:04}-{m:02}-{d:02} {:02}:{:02}",
            minute_of_day / 60,
            minute_of_day % 60
        )
    }
}

impl FromStr for SimTime {
    type Err = ParseError;

    /// Parses `YYYY-MM-DD`, as written in security reports.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('-');
        let (Some(year), Some(month), Some(day), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(ParseError::new("date", s, "expected YYYY-MM-DD"));
        };
        let year: i32 = year
            .parse()
            .map_err(|_| ParseError::new("date", s, "bad year"))?;
        let month: u32 = month
            .parse()
            .map_err(|_| ParseError::new("date", s, "bad month"))?;
        let day: u32 = day
            .parse()
            .map_err(|_| ParseError::new("date", s, "bad day"))?;
        if year < EPOCH_YEAR {
            return Err(ParseError::new("date", s, "before simulation epoch"));
        }
        if !(1..=12).contains(&month) {
            return Err(ParseError::new("date", s, "month out of range"));
        }
        if !(1..=days_in_month(year, month)).contains(&day) {
            return Err(ParseError::new("date", s, "day out of range"));
        }
        Ok(SimTime::from_ymd(year, month, day))
    }
}

fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn days_in_year(year: i32) -> u32 {
    if is_leap_year(year) {
        366
    } else {
        365
    }
}

fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 if is_leap_year(year) => 29,
        2 => 28,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_decomposes_to_2017_01_01() {
        assert_eq!(SimTime::EPOCH.to_ymd(), (2017, 1, 1));
    }

    #[test]
    fn ymd_round_trips_across_leap_years() {
        for &(y, m, d) in &[
            (2017, 1, 1),
            (2017, 12, 31),
            (2020, 2, 29),
            (2020, 3, 1),
            (2023, 8, 9),
            (2024, 12, 31),
            (2100, 2, 28), // 2100 is not a leap year
        ] {
            let t = SimTime::from_ymd(y, m, d);
            assert_eq!(t.to_ymd(), (y, m, d), "round-trip failed for {y}-{m}-{d}");
        }
    }

    #[test]
    #[should_panic(expected = "day out of range")]
    fn feb_29_in_non_leap_year_panics() {
        SimTime::from_ymd(2023, 2, 29);
    }

    #[test]
    #[should_panic(expected = "cannot predate")]
    fn pre_epoch_panics() {
        SimTime::from_ymd(2016, 12, 31);
    }

    #[test]
    fn parse_and_display() {
        let t: SimTime = "2023-08-09".parse().unwrap();
        assert_eq!(t.to_string(), "2023-08-09 00:00");
        assert!("2023-13-01".parse::<SimTime>().is_err());
        assert!("2023-02-30".parse::<SimTime>().is_err());
        assert!("not-a-date".parse::<SimTime>().is_err());
        assert!("2016-01-01".parse::<SimTime>().is_err());
    }

    #[test]
    fn a_date_of_the_wrong_arity_names_the_format() {
        for input in ["2024-01-15-01", "2024-01", "2024", ""] {
            let err = input.parse::<SimTime>().unwrap_err();
            assert_eq!(
                (err.what(), err.input(), err.reason()),
                ("date", input, "expected YYYY-MM-DD")
            );
        }
        let err = "2024-1x-15".parse::<SimTime>().unwrap_err();
        assert_eq!(err.reason(), "bad month");
    }

    #[test]
    fn duration_arithmetic() {
        let t0 = SimTime::from_ymd(2020, 1, 1);
        let t1 = t0 + SimDuration::days(31);
        assert_eq!(t1.to_ymd(), (2020, 2, 1));
        assert_eq!((t1 - t0).as_days(), 31);
        // Saturating: earlier.since(later) == 0.
        assert_eq!(t0.since(t1), SimDuration::ZERO);
    }

    #[test]
    fn duration_units() {
        let d = SimDuration::days(2) + SimDuration::hours(3) + SimDuration::minutes(4);
        assert_eq!(d.as_minutes(), 2 * 1440 + 3 * 60 + 4);
        assert_eq!(d.as_hours(), 51);
        assert_eq!(d.as_days(), 2);
        assert_eq!(d.to_string(), "2d03h04m");
    }

    #[test]
    fn quarter_bucketing() {
        assert_eq!(SimTime::from_ymd(2021, 1, 15).quarter(), 1);
        assert_eq!(SimTime::from_ymd(2021, 3, 31).quarter(), 1);
        assert_eq!(SimTime::from_ymd(2021, 4, 1).quarter(), 2);
        assert_eq!(SimTime::from_ymd(2021, 12, 31).quarter(), 4);
    }

    #[test]
    fn years_fraction_used_by_fig9() {
        let d = SimDuration::years(2);
        assert!((d.as_years_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_ymd(2019, 5, 1);
        let b = SimTime::from_ymd(2020, 5, 1);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
