"""Walk the greenhouse heat loss through a sol and check the avionics.

The glazed enclosure loses heat in proportion to how far the outside
temperature drops below its 20 C setpoint; the trough of the night fixes
the heater size and the whole night fixes the stored-energy need. The
avionics have a separate qualified range that a small survival heater
must defend on colder sites.
"""

from tubescout import (
    AvionicsEnvelope,
    REFERENCE_GREENHOUSE,
    avionics_envelope_check,
    diurnal_temperature,
    heat_loss,
    make_environment,
    night_heating_energy,
)


def main() -> None:
    env = make_environment()
    box = REFERENCE_GREENHOUSE
    print("Greenhouse heat loss across one sol (baseline site)")
    print(f"  glazing {box.glazed_area_m2} m^2 at U={box.u_value_w_m2k} "
          f"W/m^2K, target {box.target_temp_c} C")
    for hour in range(0, 24, 3):
        t = hour / 24.0 * env.sol_length_s
        outside = diurnal_temperature(env, t)
        print(f"  t={hour:2d} h  outside {outside:7.1f} C  "
              f"loss {heat_loss(box, outside):7.1f} W")
    trough_w = heat_loss(box, env.night_low_c)
    print(f"  trough loss   {trough_w:.1f} W (defines the heater rating)")
    print(f"  night energy  {night_heating_energy(box, env):.3f} kWh "
          f"(defines storage or a night source)")
    print()

    print("Avionics qualified-range sweep")
    for preset in ("nili_fossae_default", "cold_extreme"):
        site = make_environment(preset)
        bare = avionics_envelope_check(site, AvionicsEnvelope())
        heated = avionics_envelope_check(site, AvionicsEnvelope(heater_power_w=510.0))
        print(f"  site {preset}: night low {site.night_low_c:.0f} C")
        print(f"    no heater   ok={bare.ok!s:5}  "
              f"worst margin {bare.worst_margin_c:+.1f} C, "
              f"{len(bare.violation_windows)} violation window(s)")
        print(f"    510 W heater ok={heated.ok!s:5}  "
              f"worst margin {heated.worst_margin_c:+.1f} C")


if __name__ == "__main__":
    main()
