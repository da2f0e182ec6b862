//! Integration tests for the extension features: diagnostics, SSIM,
//! calibration, port verification, time-series conversion, restart path.

use climate_compress::codecs::{Layout, Variant};
use climate_compress::core::evaluation::{EvalConfig, Evaluation};
use climate_compress::core::{calibration, diagnostics, port, timeseries, visual};
use climate_compress::grid::{operators, Resolution};
use climate_compress::model::Model;

fn small_eval(members: usize) -> Evaluation {
    Evaluation::new(Model::new(Resolution::reduced(2, 3), 909), EvalConfig::quick(members))
}

#[test]
fn visual_check_agrees_with_pvt_on_extremes() {
    let eval = small_eval(9);
    let ctx = eval.context(eval.model.var_id("TS").unwrap());
    let lossless = visual::ssim_report(&ctx, Variant::NetCdf4).unwrap();
    assert!(lossless.pass && (lossless.mean - 1.0).abs() < 1e-12);
    let brutal = visual::ssim_report(&ctx, Variant::Grib2 { decimal_scale: Some(-3) }).unwrap();
    assert!(!brutal.pass, "100-K quantization must fail SSIM: {}", brutal.worst);
}

#[test]
fn calibration_reports_clean_operating_point() {
    let eval = small_eval(15);
    let ctx = eval.context(eval.model.var_id("U").unwrap());
    let c = calibration::calibrate(&ctx);
    assert_eq!(c.rmsz_false_positive, 0.0);
    assert_eq!(c.enmax_false_positive, 0.0);
    assert!(c.rmsz_detection_sigma.is_some());
}

#[test]
fn port_verification_distinguishes_good_from_broken() {
    let eval = small_eval(21);
    let var = eval.model.var_id("FSDSC").unwrap();
    let ctx = eval.context(var);
    let good = eval.model.member_field(60, var).data;
    let mut broken = good.clone();
    for v in broken.iter_mut() {
        *v += 40.0;
    }
    let outcomes = port::verify_port(&ctx, &[good, broken]);
    assert!(outcomes[0].range_shift_ok, "exchangeable member flagged");
    assert!(!outcomes[1].passed(), "offset member not flagged");
}

#[test]
fn timeseries_roundtrip_through_disk() {
    let model = Model::new(Resolution::reduced(2, 2), 31);
    let var = model.var_id("PS").unwrap();
    let variant = Variant::Fpzip { bits: 24 };
    let ds = timeseries::write_timeseries(&model, 2, var, 3, 0.5, variant);
    let path = std::env::temp_dir().join("cc_ts_test.ccn");
    ds.save(&path).unwrap();
    let back = climate_compress::ncdf::Dataset::open(&path).unwrap();
    for t in 0..3 {
        let slice = timeseries::read_slice(&back, &model, variant, t).unwrap();
        assert_eq!(slice.len(), model.var_points(var), "slice {t}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn gradient_drift_tracks_compression_aggressiveness() {
    let model = Model::new(Resolution::reduced(3, 2), 17);
    let var = model.var_id("TS").unwrap();
    let field = model.member_field(0, var);
    let layout = Layout::for_grid(model.grid(), field.nlev);
    let nb = operators::neighbor_lists(model.grid(), 6);

    let drift = |variant: Variant| -> f64 {
        let codec = variant.codec();
        let recon = codec
            .decompress(&codec.compress(&field.data, layout), layout)
            .unwrap();
        diagnostics::gradient_drift(model.grid(), &field.data, &recon, field.nlev, &nb)[0].abs()
    };
    let light = drift(Variant::Apax { rate: 2.0 });
    let heavy = drift(Variant::Apax { rate: 7.0 });
    assert!(light < 0.01, "APAX-2 gradient drift {light}");
    assert!(heavy > light, "heavier compression must drift more: {heavy} vs {light}");
}

#[test]
fn fpzip64_integrates_with_container_for_restart_data() {
    use climate_compress::codecs::fpzip64::Fpzip64;
    let state: Vec<f64> = (0..4000).map(|i| 300.0 + (i as f64 * 0.01).sin() * 40.0).collect();
    let layout = Layout::linear(state.len());
    let codec = Fpzip64::lossless();
    let stream = codec.compress(&state, layout);
    let back = codec.decompress(&stream, layout).unwrap();
    assert!(state.iter().zip(&back).all(|(a, b)| a.to_bits() == b.to_bits()));

    let mut ds = climate_compress::ncdf::Dataset::new();
    let d = ds.add_dim("n", state.len());
    let v = ds
        .def_var("state", climate_compress::ncdf::DType::F64, &[d],
                 climate_compress::ncdf::FilterPipeline::shuffle_deflate())
        .unwrap();
    ds.put_f64(v, &state).unwrap();
    let back = climate_compress::ncdf::Dataset::from_bytes(&ds.to_bytes()).unwrap();
    assert_eq!(back.get_f64(v).unwrap(), state);
}
