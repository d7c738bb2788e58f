"""Unit conversions and physical constants.

Everything inside the library works in linear units (watts, linear gains,
meters).  dB and dBm appear only at the scenario-file / CLI boundary, and
these helpers are that boundary.
"""

# Engineering convention (makes a 5 GHz carrier an exact 0.06 m wavelength).
SPEED_OF_LIGHT = 3.0e8  # m/s


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def wavelength(fc_hz: float) -> float:
    return SPEED_OF_LIGHT / fc_hz
